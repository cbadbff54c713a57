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
use crate::fulltext::{FullTextIndex, FullTextIndexDef, FullTextKeyGen};
use crate::pack::{NodeObserver, Packer};
use crate::validx::{IndexKeyGen, ValueIndex, ValueIndexDef};
use crate::xmltable::{DocId, XmlTable};
use parking_lot::RwLock;
use rx_storage::codec::{Dec, Enc};
use rx_storage::wal::{FileLogStore, LogRecord, MemLogStore, RecoveryEnv, Wal};
use rx_storage::{
    BTree, BufferPool, Catalog, FileBackend, HeapTable, LockManager, MemBackend, Rid,
    StorageBackend, TableSpace, Txn, TxnManager,
};
use rx_xml::name::NameDict;
use rx_xml::parser::Parser;
use rx_xml::schema::{compile as compile_schema, parse_xsd, SchemaProgram};
use rx_xml::value::KeyType;
use rx_xpath::QueryTree;
use std::collections::HashMap;
use std::path::PathBuf;
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
    /// Plan-cache capacity in entries (compiled `QueryTree` + `AccessPlan`
    /// per distinct query). 0 disables the cache.
    pub plan_cache_capacity: usize,
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
            plan_cache_capacity: 128,
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

/// One XML column of a base table with its internal XML table and value
/// indexes.
pub struct XmlColumn {
    /// Column name.
    pub name: String,
    /// Position within the table's column list.
    pub position: usize,
    xml: XmlTable,
    indexes: RwLock<Vec<Arc<ValueIndex>>>,
    ft_indexes: RwLock<Vec<Arc<FullTextIndex>>>,
}

impl XmlColumn {
    /// The internal XML table.
    pub fn xml_table(&self) -> &XmlTable {
        &self.xml
    }

    /// Snapshot of the column's value indexes.
    pub fn indexes(&self) -> Vec<Arc<ValueIndex>> {
        self.indexes.read().clone()
    }

    /// Snapshot of the column's full-text indexes.
    pub fn fulltext_indexes(&self) -> Vec<Arc<FullTextIndex>> {
        self.ft_indexes.read().clone()
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

/// Per-index derived items: (value-index lists, full-text lists), one inner
/// list per index in declaration order.
type DerivedItems = (
    Vec<Vec<rx_xpath::ResultItem>>,
    Vec<Vec<rx_xpath::ResultItem>>,
);

/// A decoded base-table row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The implicit DocID.
    pub doc: DocId,
    /// Relational string values, in column order (XML columns contribute an
    /// empty marker here; their data lives in the internal XML tables).
    pub values: Vec<String>,
}

fn encode_base_row(doc: DocId, values: &[String]) -> Vec<u8> {
    let mut e = Enc::with_capacity(16);
    e.u64(doc);
    e.varint(values.len() as u64);
    for v in values {
        e.str(v);
    }
    e.into_bytes()
}

fn decode_base_row(rec: &[u8]) -> Result<Row> {
    let mut d = Dec::new(rec);
    let doc = d.u64()?;
    let n = d.varint()? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(d.str()?.to_string());
    }
    Ok(Row { doc, values })
}

// Catalog key prefixes.
const K_NEXT_SPACE: &[u8] = b"meta/next_space";
const K_NEXT_TABLE: &[u8] = b"meta/next_table";
const K_DICT_STRINGS: &[u8] = b"meta/dict_strings";
const K_DICT_QNAMES: &[u8] = b"meta/dict_qnames";

fn k_table(name: &str) -> Vec<u8> {
    [b"tbl/", name.as_bytes()].concat()
}

fn k_doccnt(table_id: u32) -> Vec<u8> {
    format!("doccnt/{table_id}").into_bytes()
}

fn k_index(table: &str, index: &str) -> Vec<u8> {
    format!("idx/{table}/{index}").into_bytes()
}

fn k_ft_index(table: &str, index: &str) -> Vec<u8> {
    format!("fti/{table}/{index}").into_bytes()
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

    /// Create a new database with explicit storage and config.
    pub fn create_with(storage: Storage, config: DbConfig) -> Result<Arc<Database>> {
        config.validate()?;
        if let Storage::Dir(dir) = &storage {
            std::fs::create_dir_all(dir).map_err(rx_storage::StorageError::from)?;
        }
        let pool = BufferPool::new(config.buffer_pages);
        // Space 0: the catalog.
        let cat_space = TableSpace::create(pool.clone(), 0, Self::make_backend(&storage, 0)?)?;
        let catalog = Catalog::create(cat_space)?;
        catalog.put(K_NEXT_SPACE, &1u64.to_le_bytes())?;
        let wal: Arc<Wal> = match &storage {
            Storage::Memory => Wal::new(Arc::new(MemLogStore::new())),
            Storage::Dir(dir) => Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log"))?)),
        };
        let locks = LockManager::new(config.lock_timeout);
        let txns = TxnManager::new(wal, locks);
        let executor = crate::executor::QueryExecutor::new(config.query_workers);
        let plan_cache = crate::executor::PlanCache::new(config.plan_cache_capacity);
        let doc_cache = crate::doccache::DocCache::new(config.doc_cache_bytes);
        Ok(Arc::new(Database {
            config,
            storage,
            pool,
            catalog,
            dict: Arc::new(NameDict::new()),
            txns,
            tables: RwLock::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
            dict_persisted: parking_lot::Mutex::new((1, 0)),
            executor,
            plan_cache,
            doc_cache,
        }))
    }

    /// Reopen a file-backed database, running crash recovery.
    pub fn open_dir(dir: impl Into<PathBuf>) -> Result<Arc<Database>> {
        Self::open_with(dir, DbConfig::default())
    }

    /// Reopen with explicit config.
    pub fn open_with(dir: impl Into<PathBuf>, config: DbConfig) -> Result<Arc<Database>> {
        config.validate()?;
        let dir: PathBuf = dir.into();
        let storage = Storage::Dir(dir.clone());
        let pool = BufferPool::new(config.buffer_pages);
        let cat_space = TableSpace::open(pool.clone(), 0, Self::make_backend(&storage, 0)?)?;
        let catalog = Catalog::open(cat_space)?;
        // Rebuild the name dictionary.
        let dict = match (catalog.get(K_DICT_STRINGS), catalog.get(K_DICT_QNAMES)) {
            (Some(sb), Some(qb)) => Arc::new(decode_dict(&sb, &qb)?),
            _ => Arc::new(NameDict::new()),
        };
        let wal = Wal::new(Arc::new(FileLogStore::open(&dir.join("wal.log"))?));
        let locks = LockManager::new(config.lock_timeout);
        let txns = TxnManager::new(wal, locks);
        let executor = crate::executor::QueryExecutor::new(config.query_workers);
        let plan_cache = crate::executor::PlanCache::new(config.plan_cache_capacity);
        let doc_cache = crate::doccache::DocCache::new(config.doc_cache_bytes);
        let db = Arc::new(Database {
            config,
            storage,
            pool,
            catalog,
            dict,
            txns,
            tables: RwLock::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
            dict_persisted: parking_lot::Mutex::new((0, 0)),
            executor,
            plan_cache,
            doc_cache,
        });
        // Load all tables so recovery can reach every space.
        let mut env = RecoveryEnv::default();
        let table_keys: Vec<Vec<u8>> = db
            .catalog
            .list_prefix(b"tbl/")
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for key in table_keys {
            let name = String::from_utf8_lossy(&key[4..]).to_string();
            let table = db.load_table(&name)?;
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
                for fti in col.fulltext_indexes() {
                    env.indexes.insert(
                        (fti.def.space_id, crate::fulltext::FULLTEXT_ANCHOR as u32),
                        fti.btree_arc(),
                    );
                }
            }
        }
        let report = rx_storage::recover(db.txns.wal(), &env)?;
        // Doc counters may lag the recovered data (they live in catalog
        // pages that might not have been flushed): raise each to the max
        // recovered DocID.
        let tables: Vec<Arc<BaseTable>> = db.tables.read().values().cloned().collect();
        for table in tables {
            // Value indexes derived their multi-valued flag from the pages as
            // found at open; redo and undo may have changed the entries since.
            if report.redone + report.undone > 0 {
                for col in &table.xml_columns {
                    for vi in col.indexes() {
                        vi.recompute_multi_valued()?;
                    }
                }
            }
            let mut max_doc = 0u64;
            table.docid_index.scan_all(|k, _| {
                if let Ok(b) = <[u8; 8]>::try_from(k) {
                    max_doc = max_doc.max(u64::from_be_bytes(b));
                }
                true
            })?;
            let key = k_doccnt(table.def.id);
            while db.catalog.counter(&key) < max_doc {
                db.catalog.bump_counter(&key)?;
            }
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

    /// Plan + execute an XPath query over `column`, through the plan cache
    /// and the worker pool. Returns `(hits, stats, explain)`.
    pub fn query(
        &self,
        table: &Arc<BaseTable>,
        column: &Arc<XmlColumn>,
        path: &rx_xpath::Path,
        prefer_nodeid: bool,
    ) -> Result<(
        Vec<crate::access::QueryHit>,
        crate::access::AccessStats,
        String,
    )> {
        crate::access::run_query_with(
            Some(&self.executor),
            Some(&self.plan_cache),
            table,
            column,
            &self.dict,
            path,
            prefer_nodeid,
        )
    }

    /// [`Database::query`] under the §5.1 DocID-locking protocol: all
    /// candidate S locks are taken in `txn` before evaluation fans out.
    pub fn query_locked(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        column: &Arc<XmlColumn>,
        path: &rx_xpath::Path,
        prefer_nodeid: bool,
    ) -> Result<(Vec<crate::access::QueryHit>, crate::access::AccessStats)> {
        crate::access::run_query_locked_with(
            Some(&self.executor),
            Some(&self.plan_cache),
            txn,
            table,
            column,
            &self.dict,
            path,
            prefer_nodeid,
        )
    }

    /// Snapshot the engine's internal counters. Cheap (a few atomic loads
    /// and two short mutex holds) — safe to call from a stats endpoint on
    /// every request.
    pub fn stats(&self) -> DbStats {
        let (buffer_hits, buffer_misses, buffer_evictions, buffer_writebacks) =
            self.pool.stats.snapshot();
        let (lock_waits, lock_timeouts, lock_deadlocks) = self.txns.locks().stats.snapshot();
        let wal = self.txns.wal();
        let wal_stats = wal.stats.snapshot();
        DbStats {
            buffer_hits,
            buffer_misses,
            buffer_evictions,
            buffer_writebacks,
            buffer_resident: self.pool.resident() as u64,
            buffer_shards: self.pool.shard_count() as u64,
            buffer_contention: self
                .pool
                .stats
                .contention
                .load(std::sync::atomic::Ordering::Relaxed),
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

    /// Create a base table.
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
        let base_space_id = base_space.id();
        let heap = HeapTable::create(base_space.clone())?;
        let docid_index = BTree::create(base_space, DOCID_INDEX_ANCHOR)?;
        let mut defs = Vec::new();
        let mut xml_columns = Vec::new();
        let mut col_spaces: Vec<u32> = Vec::new();
        for (pos, (cname, kind)) in columns.iter().enumerate() {
            defs.push(ColumnDef {
                name: (*cname).to_string(),
                kind: *kind,
            });
            if *kind == ColumnKind::Xml {
                let space = self.allocate_space()?;
                col_spaces.push(space.id());
                let xml = XmlTable::create(space)?;
                xml.set_doc_cache(Arc::clone(&self.doc_cache));
                xml_columns.push(Arc::new(XmlColumn {
                    name: (*cname).to_string(),
                    position: pos,
                    xml,
                    indexes: RwLock::new(Vec::new()),
                    ft_indexes: RwLock::new(Vec::new()),
                }));
            } else {
                col_spaces.push(0);
            }
        }
        // Persist the definition.
        let mut e = Enc::new();
        e.u32(id).u32(base_space_id).varint(defs.len() as u64);
        for (i, c) in defs.iter().enumerate() {
            e.str(&c.name)
                .u8(match c.kind {
                    ColumnKind::Str => 0,
                    ColumnKind::Xml => 1,
                })
                .u32(col_spaces[i]);
        }
        self.catalog.put(&k_table(name), &e.into_bytes())?;
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
        });
        self.tables
            .write()
            .insert(name.to_string(), Arc::clone(&table));
        // DDL is durable immediately.
        self.pool.flush_all()?;
        Ok(table)
    }

    fn load_table(&self, name: &str) -> Result<Arc<BaseTable>> {
        if let Some(t) = self.tables.read().get(name) {
            return Ok(Arc::clone(t));
        }
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
            let space = d.u32()?;
            if kind == ColumnKind::Xml {
                xml_cols_raw.push((cname.clone(), pos, space));
            }
            defs.push(ColumnDef { name: cname, kind });
        }
        let base_space = self.open_space(base_space_id)?;
        let heap = HeapTable::open(base_space.clone())?;
        let docid_index = BTree::open(base_space, DOCID_INDEX_ANCHOR)?;
        let mut xml_columns = Vec::new();
        for (cname, pos, space) in xml_cols_raw {
            let xml = XmlTable::open(self.open_space(space)?)?;
            xml.set_doc_cache(Arc::clone(&self.doc_cache));
            let col = Arc::new(XmlColumn {
                name: cname.clone(),
                position: pos,
                xml,
                indexes: RwLock::new(Vec::new()),
                ft_indexes: RwLock::new(Vec::new()),
            });
            // Load value indexes for this column.
            for (key, val) in self.catalog.list_prefix(&k_index(name, "")) {
                let mut d = Dec::new(&val);
                let col_name = d.str()?.to_string();
                if col_name != cname {
                    continue;
                }
                let path_text = d.str()?.to_string();
                let key_type = KeyType::from_u8(d.u8()?)?;
                let space_id = d.u32()?;
                let idx_name = String::from_utf8_lossy(&key)
                    .rsplit('/')
                    .next()
                    .unwrap_or_default()
                    .to_string();
                let vi = ValueIndex::open(
                    self.open_space(space_id)?,
                    ValueIndexDef {
                        name: idx_name,
                        path_text,
                        key_type,
                        space_id,
                    },
                )?;
                col.indexes.write().push(Arc::new(vi));
            }
            // Load full-text indexes for this column.
            for (key, val) in self.catalog.list_prefix(&k_ft_index(name, "")) {
                let mut d = Dec::new(&val);
                let col_name = d.str()?.to_string();
                if col_name != cname {
                    continue;
                }
                let path_text = d.str()?.to_string();
                let space_id = d.u32()?;
                let idx_name = String::from_utf8_lossy(&key)
                    .rsplit('/')
                    .next()
                    .unwrap_or_default()
                    .to_string();
                let fti = FullTextIndex::open(
                    self.open_space(space_id)?,
                    FullTextIndexDef {
                        name: idx_name,
                        path_text,
                        space_id,
                    },
                )?;
                col.ft_indexes.write().push(Arc::new(fti));
            }
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
        });
        self.tables
            .write()
            .insert(name.to_string(), Arc::clone(&table));
        Ok(table)
    }

    /// Get a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<BaseTable>> {
        self.load_table(name)
    }

    /// Drop a base table: remove its definition, index definitions, and doc
    /// counter from the catalog, evict it from the table map, and invalidate
    /// every cached plan that compiled against it. The table's spaces are
    /// abandoned rather than reclaimed (recovery skips WAL records whose
    /// space is no longer reachable from the catalog).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let t = self.load_table(name)?;
        let index_keys: Vec<Vec<u8>> = self
            .catalog
            .list_prefix(&k_index(name, ""))
            .into_iter()
            .map(|(k, _)| k)
            .chain(
                self.catalog
                    .list_prefix(&k_ft_index(name, ""))
                    .into_iter()
                    .map(|(k, _)| k),
            )
            .collect();
        for key in index_keys {
            self.catalog.delete(&key)?;
        }
        self.catalog.delete(&k_table(name))?;
        self.catalog.delete(&k_doccnt(t.def.id))?;
        self.tables.write().remove(name);
        self.plan_cache.invalidate_table(t.def.id);
        // A recreated table may reuse the dropped table's document IDs, so
        // cached snapshots (and writer epoch state) for its spaces must go.
        for col in t.xml_columns() {
            self.doc_cache.invalidate_space(col.xml.space_id());
        }
        // DDL is durable immediately.
        self.pool.flush_all()?;
        Ok(())
    }

    // -- value indexes --------------------------------------------------------

    /// `CREATE INDEX … ON table(column) GENERATE KEY USING XPATH 'path' AS type`
    /// (§3.3). The table must currently be empty of committed documents for
    /// simplicity of the reproduction (create indexes before loading).
    pub fn create_value_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        path: &str,
        key_type: KeyType,
    ) -> Result<Arc<ValueIndex>> {
        let t = self.table(table)?;
        let col = t.xml_column(column)?;
        if self.catalog.contains(&k_index(table, index_name)) {
            return Err(EngineError::AlreadyExists {
                kind: "index",
                name: index_name.to_string(),
            });
        }
        let space = self.allocate_space()?;
        let space_id = space.id();
        let vi = Arc::new(ValueIndex::create(
            space,
            ValueIndexDef {
                name: index_name.to_string(),
                path_text: path.to_string(),
                key_type,
                space_id,
            },
        )?);
        let mut e = Enc::new();
        e.str(column).str(path).u8(key_type as u8).u32(space_id);
        self.catalog
            .put(&k_index(table, index_name), &e.into_bytes())?;
        col.indexes.write().push(Arc::clone(&vi));
        // Cached plans chose their access path before this index existed.
        self.plan_cache.invalidate_table(t.def.id);
        self.pool.flush_all()?;
        Ok(vi)
    }

    /// `CREATE FULLTEXT INDEX … ON table(column) USING XPATH 'path'` — the
    /// §6 future-work extension: an inverted term index over the string
    /// values of the nodes the path selects.
    pub fn create_fulltext_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        path: &str,
    ) -> Result<Arc<FullTextIndex>> {
        let t = self.table(table)?;
        let col = t.xml_column(column)?;
        if self.catalog.contains(&k_ft_index(table, index_name)) {
            return Err(EngineError::AlreadyExists {
                kind: "full-text index",
                name: index_name.to_string(),
            });
        }
        let space = self.allocate_space()?;
        let space_id = space.id();
        let fti = Arc::new(FullTextIndex::create(
            space,
            FullTextIndexDef {
                name: index_name.to_string(),
                path_text: path.to_string(),
                space_id,
            },
        )?);
        let mut e = Enc::new();
        e.str(column).str(path).u32(space_id);
        self.catalog
            .put(&k_ft_index(table, index_name), &e.into_bytes())?;
        col.ft_indexes.write().push(Arc::clone(&fti));
        // Cached plans chose their access path before this index existed.
        self.plan_cache.invalidate_table(t.def.id);
        self.pool.flush_all()?;
        Ok(fti)
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
        let doc = self.catalog.bump_counter(&k_doccnt(table.def.id))?;
        // §5.1: X-lock the document (plus table intent) so no reader ever
        // sees a partially inserted document.
        txn.lock(
            &rx_storage::LockName::Table(table.def.id),
            rx_storage::LockMode::IX,
        )?;
        txn.lock(
            &rx_storage::LockName::Document {
                table: table.def.id,
                doc,
            },
            rx_storage::LockMode::X,
        )?;
        let mut base_values = Vec::with_capacity(values.len());
        for (cv, cd) in values.iter().zip(&table.def.columns) {
            match (cv, cd.kind) {
                (ColValue::Str(s), ColumnKind::Str) => base_values.push(s.clone()),
                (ColValue::Xml(text), ColumnKind::Xml) => {
                    let col = table.xml_column(&cd.name)?;
                    self.store_document(txn, col, doc, text, None)?;
                    base_values.push(String::new());
                }
                (ColValue::XmlValidated { text, schema }, ColumnKind::Xml) => {
                    let col = table.xml_column(&cd.name)?;
                    let program = self.schema(schema)?;
                    self.store_document(txn, col, doc, text, Some(&program))?;
                    base_values.push(String::new());
                }
                _ => {
                    return Err(EngineError::Invalid(format!(
                        "value kind mismatch for column {}",
                        cd.name
                    )))
                }
            }
        }
        // Base row + DocID index.
        let row = encode_base_row(doc, &base_values);
        let rid = table.heap.insert(&row)?;
        txn.log(&LogRecord::HeapInsert {
            txn: txn.id(),
            space: table.base_space,
            rid,
            data: row.clone(),
        })?;
        {
            let heap = Arc::clone(&table.heap);
            let space = table.base_space;
            txn.push_undo(Box::new(move |ctx| {
                ctx.log(&LogRecord::HeapDelete {
                    txn: ctx.txn(),
                    space,
                    rid,
                    before: row.clone(),
                })?;
                heap.delete(rid)?;
                Ok(())
            }));
        }
        let dkey = doc.to_be_bytes().to_vec();
        let prev = table.docid_index.insert(&dkey, rid.to_u64())?;
        txn.log(&LogRecord::IndexInsert {
            txn: txn.id(),
            space: table.base_space,
            anchor: DOCID_INDEX_ANCHOR as u32,
            key: dkey.clone(),
            value: rid.to_u64(),
            prev,
        })?;
        {
            let index = Arc::clone(&table.docid_index);
            let space = table.base_space;
            txn.push_undo(Box::new(move |ctx| {
                ctx.log(&LogRecord::IndexDelete {
                    txn: ctx.txn(),
                    space,
                    anchor: DOCID_INDEX_ANCHOR as u32,
                    key: dkey.clone(),
                    value: rid.to_u64(),
                })?;
                index.delete(&dkey)?;
                Ok(())
            }));
        }
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

    /// Parse/validate, pack, and index one document into an XML column.
    fn store_document(
        &self,
        txn: &Txn,
        col: &XmlColumn,
        doc: DocId,
        text: &str,
        schema: Option<&SchemaProgram>,
    ) -> Result<()> {
        let indexes = col.indexes();
        let ft_indexes = col.fulltext_indexes();
        let trees: Vec<QueryTree> = indexes.iter().map(|i| i.tree.clone()).collect();
        let ft_trees: Vec<QueryTree> = ft_indexes.iter().map(|i| i.tree.clone()).collect();
        let mut keygen = IndexKeyGen::new(&trees, &self.dict);
        let mut ft_keygen = FullTextKeyGen::new(&ft_trees, &self.dict);
        let mut observer = crate::pack::TeeObserver {
            a: &mut keygen,
            b: &mut ft_keygen,
        };
        let xml = &col.xml;
        let mut err: Option<EngineError> = None;
        {
            let mut sink = |rec: crate::pack::PackedRecord| -> Result<()> {
                xml.insert_record(txn, doc, &rec)?;
                Ok(())
            };
            let mut packer =
                Packer::with_target(self.config.target_record_size, &mut sink, &mut observer);
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
        let ft_items = ft_keygen.finish()?;
        for (fti, items) in ft_indexes.iter().zip(&ft_items) {
            fti.insert_entries(txn, doc, xml, items)?;
        }
        self.persist_dict_if_grown()?;
        Ok(())
    }

    /// Fetch a base row by DocID.
    pub fn fetch_row(&self, table: &Arc<BaseTable>, doc: DocId) -> Result<Option<Row>> {
        match table.row_rid(doc)? {
            Some(rid) => {
                let rec = table.heap.fetch(rid)?;
                Ok(Some(decode_base_row(&rec)?))
            }
            None => Ok(None),
        }
    }

    /// Delete a row (and its XML documents + index entries) within `txn`.
    pub fn delete_row_txn(&self, txn: &Txn, table: &Arc<BaseTable>, doc: DocId) -> Result<bool> {
        txn.lock(
            &rx_storage::LockName::Table(table.def.id),
            rx_storage::LockMode::IX,
        )?;
        txn.lock(
            &rx_storage::LockName::Document {
                table: table.def.id,
                doc,
            },
            rx_storage::LockMode::X,
        )?;
        let Some(rid) = table.row_rid(doc)? else {
            return Ok(false);
        };
        for col in &table.xml_columns {
            // Re-derive full-text postings by replaying the stored document.
            let ft_indexes = col.fulltext_indexes();
            if !ft_indexes.is_empty() {
                let trees: Vec<QueryTree> = ft_indexes.iter().map(|i| i.tree.clone()).collect();
                let mut keygen = FullTextKeyGen::new(&trees, &self.dict);
                let mut t = crate::traverse::Traverser::new(&col.xml, doc);
                struct FtObs<'a, 'q, 'd>(&'a mut FullTextKeyGen<'q, 'd>);
                impl crate::traverse::IdEventSink for FtObs<'_, '_, '_> {
                    fn id_event(
                        &mut self,
                        id: &rx_xml::NodeId,
                        ev: rx_xml::event::Event<'_>,
                    ) -> Result<()> {
                        self.0.node(id, &ev)
                    }
                }
                t.run(&mut FtObs(&mut keygen))?;
                let all_items = keygen.finish()?;
                for (fti, items) in ft_indexes.iter().zip(&all_items) {
                    fti.delete_entries(txn, doc, items)?;
                }
            }
            // Re-derive value index keys by replaying the stored document.
            let indexes = col.indexes();
            if !indexes.is_empty() {
                let trees: Vec<QueryTree> = indexes.iter().map(|i| i.tree.clone()).collect();
                let mut keygen = IndexKeyGen::new(&trees, &self.dict);
                let mut t = crate::traverse::Traverser::new(&col.xml, doc);
                struct Obs<'a, 'q, 'd>(&'a mut IndexKeyGen<'q, 'd>);
                impl crate::traverse::IdEventSink for Obs<'_, '_, '_> {
                    fn id_event(
                        &mut self,
                        id: &rx_xml::NodeId,
                        ev: rx_xml::event::Event<'_>,
                    ) -> Result<()> {
                        self.0.node(id, &ev)
                    }
                }
                t.run(&mut Obs(&mut keygen))?;
                let all_items = keygen.finish()?;
                for (vi, items) in indexes.iter().zip(&all_items) {
                    vi.delete_entries(txn, doc, items)?;
                }
            }
            col.xml.delete_document(txn, doc)?;
        }
        // Base row + DocID index entry.
        let before = table.heap.fetch(rid)?;
        table.heap.delete(rid)?;
        txn.log(&LogRecord::HeapDelete {
            txn: txn.id(),
            space: table.base_space,
            rid,
            before: before.clone(),
        })?;
        {
            let heap = Arc::clone(&table.heap);
            let space = table.base_space;
            txn.push_undo(Box::new(move |ctx| {
                ctx.log(&LogRecord::HeapInsert {
                    txn: ctx.txn(),
                    space,
                    rid,
                    data: before.clone(),
                })?;
                heap.insert_at(rid, &before)?;
                Ok(())
            }));
        }
        let dkey = doc.to_be_bytes().to_vec();
        if let Some(v) = table.docid_index.delete(&dkey)? {
            txn.log(&LogRecord::IndexDelete {
                txn: txn.id(),
                space: table.base_space,
                anchor: DOCID_INDEX_ANCHOR as u32,
                key: dkey.clone(),
                value: v,
            })?;
            let index = Arc::clone(&table.docid_index);
            let space = table.base_space;
            txn.push_undo(Box::new(move |ctx| {
                ctx.log(&LogRecord::IndexInsert {
                    txn: ctx.txn(),
                    space,
                    anchor: DOCID_INDEX_ANCHOR as u32,
                    key: dkey.clone(),
                    value: v,
                    prev: None,
                })?;
                index.insert(&dkey, v)?;
                Ok(())
            }));
        }
        Ok(true)
    }

    /// Delete a row in its own transaction.
    pub fn delete_row(&self, table: &Arc<BaseTable>, doc: DocId) -> Result<bool> {
        let txn = self.begin()?;
        let ok = self.delete_row_txn(&txn, table, doc)?;
        txn.commit()?;
        Ok(ok)
    }

    /// Re-derive every value-index and full-text entry of one document in
    /// `column` (used around sub-document updates: derive → delete, mutate,
    /// derive → insert). Returns per-index item lists.
    fn derive_index_items(&self, col: &XmlColumn, doc: DocId) -> Result<DerivedItems> {
        let indexes = col.indexes();
        let ft_indexes = col.fulltext_indexes();
        let trees: Vec<QueryTree> = indexes.iter().map(|i| i.tree.clone()).collect();
        let ft_trees: Vec<QueryTree> = ft_indexes.iter().map(|i| i.tree.clone()).collect();
        let mut keygen = IndexKeyGen::new(&trees, &self.dict);
        let mut ft_keygen = FullTextKeyGen::new(&ft_trees, &self.dict);
        struct Obs<'a, 'b, 'q, 'd> {
            a: &'a mut IndexKeyGen<'q, 'd>,
            b: &'b mut FullTextKeyGen<'q, 'd>,
        }
        impl crate::traverse::IdEventSink for Obs<'_, '_, '_, '_> {
            fn id_event(
                &mut self,
                id: &rx_xml::NodeId,
                ev: rx_xml::event::Event<'_>,
            ) -> Result<()> {
                self.a.node(id, &ev)?;
                self.b.node(id, &ev)
            }
        }
        let mut t = crate::traverse::Traverser::new(&col.xml, doc);
        t.run(&mut Obs {
            a: &mut keygen,
            b: &mut ft_keygen,
        })?;
        Ok((keygen.finish()?, ft_keygen.finish()?))
    }

    /// Run a sub-document mutation under the §5.2 locking protocol with
    /// value-index and full-text maintenance: old index entries derived from
    /// the pre-image are removed, the mutation runs, and entries are
    /// re-derived from the post-image — all in `txn`.
    pub fn update_document_txn(
        &self,
        txn: &Txn,
        table: &Arc<BaseTable>,
        column: &str,
        doc: DocId,
        subtree: &rx_xml::NodeId,
        mutate: impl FnOnce(&Txn, &XmlTable) -> Result<crate::update::UpdateStats>,
    ) -> Result<crate::update::UpdateStats> {
        let col = table.xml_column(column)?;
        crate::conc::lock_subtree_exclusive(txn, table.def.id, doc, subtree)?;
        let has_indexes = !col.indexes().is_empty() || !col.fulltext_indexes().is_empty();
        let before = if has_indexes {
            Some(self.derive_index_items(col, doc)?)
        } else {
            None
        };
        if let Some((vals, fts)) = &before {
            for (vi, items) in col.indexes().iter().zip(vals) {
                vi.delete_entries(txn, doc, items)?;
            }
            for (fti, items) in col.fulltext_indexes().iter().zip(fts) {
                fti.delete_entries(txn, doc, items)?;
            }
        }
        let stats = mutate(txn, &col.xml)?;
        if before.is_some() {
            let (vals, fts) = self.derive_index_items(col, doc)?;
            for (vi, items) in col.indexes().iter().zip(&vals) {
                vi.insert_entries(txn, doc, &col.xml, items)?;
            }
            for (fti, items) in col.fulltext_indexes().iter().zip(&fts) {
                fti.insert_entries(txn, doc, &col.xml, items)?;
            }
        }
        Ok(stats)
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

    /// Persist the name dictionary if it has grown since the last persist,
    /// flushing the catalog space so the names are durable *before* the
    /// commit record of any document that uses them (packed records store
    /// integer name IDs, so the dictionary must never lag the data).
    fn persist_dict_if_grown(&self) -> Result<()> {
        let mut last = self.dict_persisted.lock();
        let now = (self.dict.string_count(), self.dict.qname_count());
        if now == *last {
            return Ok(());
        }
        let (sb, qb) = encode_dict(&self.dict);
        self.catalog.put(K_DICT_STRINGS, &sb)?;
        self.catalog.put(K_DICT_QNAMES, &qb)?;
        self.pool.flush_space(0)?;
        *last = now;
        Ok(())
    }

    /// Flush all dirty pages, persist the name dictionary, and truncate the
    /// WAL (a checkpoint).
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
        let (sb, qb) = encode_dict(&self.dict);
        self.catalog.put(K_DICT_STRINGS, &sb)?;
        self.catalog.put(K_DICT_QNAMES, &qb)?;
        self.pool.flush_all()?;
        self.txns.wal().checkpoint(keep_from)?;
        Ok(())
    }
}

fn encode_dict(dict: &NameDict) -> (Vec<u8>, Vec<u8>) {
    let (strings, qnames) = dict.export();
    let mut es = Enc::new();
    es.varint(strings.len() as u64);
    for s in &strings {
        es.str(s);
    }
    let mut eq = Enc::new();
    eq.varint(qnames.len() as u64);
    for q in &qnames {
        eq.u32(q.uri).u32(q.prefix).u32(q.local);
    }
    (es.into_bytes(), eq.into_bytes())
}

fn decode_dict(sb: &[u8], qb: &[u8]) -> Result<NameDict> {
    let mut d = Dec::new(sb);
    let n = d.varint()? as usize;
    let mut strings = Vec::with_capacity(n);
    for _ in 0..n {
        strings.push(d.str()?.to_string());
    }
    let mut d = Dec::new(qb);
    let n = d.varint()? as usize;
    let mut qnames = Vec::with_capacity(n);
    for _ in 0..n {
        qnames.push(rx_xml::QName {
            uri: d.u32()?,
            prefix: d.u32()?,
            local: d.u32()?,
        });
    }
    Ok(NameDict::import(&strings, &qnames))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_table(db: &Arc<Database>) -> Arc<BaseTable> {
        db.create_table(
            "products",
            &[("sku", ColumnKind::Str), ("doc", ColumnKind::Xml)],
        )
        .unwrap()
    }

    const DOC1: &str = r#"<Catalog><Product><ProductName>Widget</ProductName><RegPrice>9.99</RegPrice></Product></Catalog>"#;
    const DOC2: &str = r#"<Catalog><Product><ProductName>Gadget</ProductName><RegPrice>120</RegPrice><Discount>0.25</Discount></Product></Catalog>"#;

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
        let (hits, _, explain) = db.query(&t, col, &path, false).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(explain.contains("list access"), "got plan: {explain}");
        let (again, _, _) = db.query(&t, col, &path, false).unwrap();
        assert_eq!(again, hits);
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
        let (replanned, _, _) = db.query(&t, col, &path, false).unwrap();
        assert_eq!(replanned, hits);
        assert_eq!(db.stats().plan_cache_misses, 2);
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
        let col = t.xml_column("doc").unwrap();
        let path = rx_xpath::XPathParser::new().parse("/Catalog").unwrap();
        db.query(&t, col, &path, false).unwrap();
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
        let (hits, _, _) = db
            .query(&t2, t2.xml_column("doc").unwrap(), &path, false)
            .unwrap();
        assert!(hits.is_empty());
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
        let rids = col.xml_table().document_rids(2).unwrap();
        assert!(rids.is_empty(), "aborted insert left records: {rids:?}");
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
}
