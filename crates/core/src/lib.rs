//! # rx-engine — System R/X: a native XML database engine on relational
//! infrastructure
//!
//! A from-scratch reproduction of *"Building a Scalable Native XML Database
//! Engine on Infrastructure for a Relational Database"* (Guogen Zhang, 2005).
//! The engine stores XML natively — tree-packed records with Dewey node IDs
//! on relational heap pages, located through a NodeID B+tree — and queries it
//! with the QuickXScan streaming XPath algorithm plus XPath value indexes.
//!
//! Module map (paper section in parentheses):
//!
//! * [`pack`] — tree packing into records with proxies and interval index
//!   entries (§3.1, Fig. 3);
//! * [`xmltable`] — the internal XML table + NodeID index (§3.1, Fig. 2);
//! * [`traverse`] — stored-data traversal and node fetch (§3.4);
//! * [`validx`] — XPath value indexes with QuickXScan key generation (§3.3),
//!   full-text indexes among them as value indexes whose keys are terms;
//! * [`fulltext`] — the tokenizer and term search of full-text indexes (§6);
//! * [`update`] — sub-document updates with stable Dewey IDs (§3.1);
//! * [`access`] — DocID/NodeID list, filtering, ANDing/ORing access methods
//!   and access-path selection (§4.3, Table 2);
//! * [`construct`] — constructor functions with tagging templates and XMLAGG
//!   linked-list quicksort (§4.1, Fig. 5);
//! * [`runtime`] — virtual-SAX runtime, XML handles, sequences (§4.4, Fig. 8);
//! * [`conc`] / [`mvcc`] — DocID locking, node-prefix multi-granularity
//!   locking, and document multiversioning (§5);
//! * [`executor`] — the shared query worker pool and plan cache;
//! * [`doccache`] — the versioned hot-document record cache above the
//!   buffer pool;
//! * [`lru`] — the O(1) least-recently-used map under both caches;
//! * [`db`] — the database façade (tables, columns, schemas, recovery);
//! * [`sqlxml`] — the SQL/XML statement layer (§2).
//!
//! The one-node-per-row and LOB storage **baselines** the paper's §3.1
//! analysis compares against live in `rx-bench`, beside the experiments
//! that measure them.

#![warn(missing_docs)]

pub mod access;
pub mod conc;
pub mod construct;
pub mod db;
pub mod doccache;
pub mod error;
pub mod executor;
pub mod fulltext;
pub mod lru;
pub mod mvcc;
pub mod pack;
pub mod runtime;
pub mod sqlxml;
pub mod traverse;
pub mod update;
pub mod validx;
pub mod xmltable;
pub mod xquery;

pub use access::{AccessPlan, AccessStats, QueryHit};
pub use db::{
    BaseTable, ColValue, ColumnKind, Database, DbConfig, DbStats, Row, Storage, XmlColumn,
};
pub use doccache::{CachedDoc, DocCache};
pub use error::{EngineError, Result};
pub use executor::{PlanCache, QueryExecutor};
pub use sqlxml::{Output, Session};
pub use xmltable::{DocId, LoadedRecord, XmlTable};
