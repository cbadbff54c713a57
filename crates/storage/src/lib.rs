//! # rx-storage — relational data-management infrastructure for System R/X
//!
//! The substrate layer of the System R/X reproduction: everything the paper
//! describes as "the same mature infrastructure for a relational database"
//! (§2) that the native XML engine is built on. To this layer, packed XML
//! records are indistinguishable from relational rows.
//!
//! Components:
//!
//! * [`page`] — fixed-size slotted pages, the I/O unit;
//! * [`backend`] — file- and memory-backed page storage;
//! * [`buffer`] — the shared buffer pool with clock eviction;
//! * [`space`] — table spaces with page allocation and anchor slots;
//! * [`heap`] — heap tables addressed by [`rid::Rid`];
//! * [`btree`] — the B+tree index infrastructure reused by the NodeID index
//!   and XPath value indexes;
//! * [`wal`] / [`txn`] — write-ahead logging, ARIES-style recovery, and
//!   transactions;
//! * [`lock`] — the multi-granularity lock manager over tables and
//!   documents (§5);
//! * [`catalog`] — the persistent directory (compiled schemas, object
//!   definitions, counters);
//! * [`codec`] — the byte codec shared by record formats;
//! * [`idhash`] — the fast hasher for maps keyed by internal ids.

#![warn(missing_docs)]

pub mod backend;
pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod heap;
pub mod idhash;
pub mod lock;
pub mod page;
pub mod rid;
pub mod space;
pub mod txn;
pub mod wal;

pub use backend::{FileBackend, MemBackend, StorageBackend};
pub use btree::BTree;
pub use buffer::{BufferPool, PageId, SpaceId};
pub use catalog::Catalog;
pub use error::{Result, StorageError};
pub use heap::HeapTable;
pub use lock::{LockManager, LockMode, LockName};
pub use page::{Page, PageType, MAX_RECORD_SIZE, PAGE_SIZE};
pub use rid::Rid;
pub use space::TableSpace;
pub use txn::{Txn, TxnManager};
pub use wal::{recover, LogRecord, RecoveryEnv, Target, TxnId, Wal};
