//! Property-based crash-recovery testing at the storage layer: random
//! interleavings of committed, aborted, in-flight (crashed) transactions and
//! transactions that crash part-way through their rollback, over a heap and
//! a B+tree written through the `Txn` write helpers — among them updates
//! that shrink a record in place beside updates that grow a neighbour on
//! the same page. After losing every
//! unflushed page and recovering from the WAL alone, the state must equal a
//! model that applied only the committed transactions. A second run on the
//! recovered state, a second crash and a second recovery must again equal
//! the model: a loser that the first recovery rolled back stays rolled back.
//!
//! The workload honours the engine's two-phase-locking discipline: a key or
//! heap record touched by a transaction that never finishes stays locked, so
//! later transactions skip operations on it — without that discipline,
//! loser-undo against a later overwrite is unsound in any before-image
//! recovery scheme (the engine enforces it with document X locks held to
//! commit).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use system_rx::storage::wal::{LogRecord, MemLogStore, RecoveryEnv, Target};
use system_rx::storage::{
    recover, BTree, BufferPool, HeapTable, LockManager, MemBackend, Rid, TableSpace, Txn,
    TxnManager, Wal,
};

const SPACE: u32 = 3;
const ANCHOR: u32 = 2;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, u64),
    Delete(Vec<u8>),
    HeapInsert(Vec<u8>),
    /// Replace the `n`-th (mod count) record this transaction may touch.
    HeapUpdate(usize, Vec<u8>),
    HeapDelete(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Commit,
    Abort,
    /// Left in flight at the crash point.
    Crash,
    /// Crashes after rolling back this many of its newest records.
    CrashMidRollback(usize),
}

/// One transaction, and whether a checkpoint follows it.
type TxnSpec = (Vec<Op>, Fate, bool);

fn arb_txn() -> impl Strategy<Value = TxnSpec> {
    let body = || prop::collection::vec(any::<u8>(), 1..300);
    let op = prop_oneof![
        (prop::collection::vec(1u8..16, 1..5), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        prop::collection::vec(1u8..16, 1..5).prop_map(Op::Delete),
        body().prop_map(Op::HeapInsert),
        (any::<usize>(), body()).prop_map(|(n, b)| Op::HeapUpdate(n, b)),
        // Shrinks and grows: a grow wants the bytes a neighbour's shrink
        // freed, which stay reserved until the shrinking transaction ends.
        (any::<usize>(), 1usize..8).prop_map(|(n, len)| Op::HeapUpdate(n, vec![n as u8; len])),
        (any::<usize>(), 600usize..3000).prop_map(|(n, len)| Op::HeapUpdate(n, vec![n as u8; len])),
        any::<usize>().prop_map(Op::HeapDelete),
    ];
    (
        prop::collection::vec(op, 1..8),
        prop_oneof![
            6 => Just(Fate::Commit),
            2 => Just(Fate::Abort),
            2 => Just(Fate::Crash),
            1 => (1usize..6).prop_map(Fate::CrashMidRollback),
        ],
        prop_oneof![1 => Just(true), 6 => Just(false)],
    )
}

/// Tree entries.
type Entries = BTreeMap<Vec<u8>, u64>;
/// Heap records by RID.
type Records = BTreeMap<Rid, Vec<u8>>;

/// The committed state, and what in-flight transactions still hold.
#[derive(Default, Clone)]
struct Model {
    tree: Entries,
    heap: Records,
    frozen_keys: BTreeSet<Vec<u8>>,
    frozen_rids: BTreeSet<Rid>,
}

struct Stores {
    pool: Arc<BufferPool>,
    heap: Arc<HeapTable>,
    tree: Arc<BTree>,
}

impl Stores {
    /// Open the structures on `backend` (as a restart after a crash does).
    fn open(backend: &Arc<MemBackend>) -> Stores {
        let pool = BufferPool::new(256);
        let space = TableSpace::open(pool.clone(), SPACE, backend.clone()).unwrap();
        let heap = HeapTable::open(space.clone()).unwrap();
        let tree = BTree::open(space, ANCHOR as usize).unwrap();
        Stores { pool, heap, tree }
    }

    fn recover(&self, log: &Arc<MemLogStore>) {
        let mut env = RecoveryEnv::default();
        env.heaps.insert(SPACE, Arc::clone(&self.heap));
        env.indexes.insert((SPACE, ANCHOR), Arc::clone(&self.tree));
        recover(&Wal::new(log.clone()), &env).unwrap();
    }

    /// Entries, records and the number of reserved slots.
    fn state(&self) -> (Entries, Records, u64) {
        let mut tree = BTreeMap::new();
        self.tree
            .scan_all(|k, v| {
                tree.insert(k.to_vec(), v);
                true
            })
            .unwrap();
        let mut heap = BTreeMap::new();
        self.heap
            .scan(|rid, rec| {
                heap.insert(rid, rec.to_vec());
                true
            })
            .unwrap();
        (tree, heap, self.heap.stats().unwrap().reserved)
    }
}

/// Roll back the newest `n` data records of `txn` by hand — apply each
/// compensation, log it — then leave the transaction in flight: a crash
/// part-way through its rollback.
fn roll_back_partly(txn: &Txn, wal: &Wal, stores: &Stores, n: usize) {
    let mine: Vec<_> = wal
        .read_records()
        .unwrap()
        .into_iter()
        .filter(|r| r.txn() == Some(txn.id()) && r.compensation().is_some())
        .collect();
    for rec in mine.iter().rev().take(n) {
        let comp = rec.compensation().unwrap();
        let target = match rec {
            LogRecord::IndexInsert { .. } | LogRecord::IndexDelete { .. } => {
                Target::Index(Arc::clone(&stores.tree))
            }
            _ => Target::Heap(Arc::clone(&stores.heap)),
        };
        comp.apply(&target).unwrap();
        txn.log(&comp).unwrap();
    }
}

/// Run `txns` against `stores`, updating `model` with what commits. Crashed
/// transactions are leaked, so they hold their locks and reserved slots.
fn run(stores: &Stores, log: &Arc<MemLogStore>, txns: &[TxnSpec], model: &mut Model) {
    let wal = Wal::new(log.clone());
    let txm = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    for (ops, fate, checkpoint) in txns {
        let txn = txm.begin().unwrap();
        let mut tree = model.tree.clone();
        let mut heap = model.heap.clone();
        let mut keys = BTreeSet::new();
        let mut rids = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(k, _) | Op::Delete(k) if model.frozen_keys.contains(k) => {}
                Op::Insert(k, v) => {
                    txn.index_insert(&stores.tree, k.clone(), *v).unwrap();
                    tree.insert(k.clone(), *v);
                    keys.insert(k.clone());
                }
                Op::Delete(k) => {
                    txn.index_delete(&stores.tree, k.clone()).unwrap();
                    tree.remove(k);
                    keys.insert(k.clone());
                }
                Op::HeapInsert(body) => {
                    let rid = txn.heap_insert(&stores.heap, body.clone()).unwrap();
                    heap.insert(rid, body.clone());
                    rids.insert(rid);
                }
                Op::HeapUpdate(n, _) | Op::HeapDelete(n) => {
                    let free: Vec<Rid> = heap
                        .keys()
                        .filter(|r| !model.frozen_rids.contains(r))
                        .copied()
                        .collect();
                    let Some(&rid) = free.get(n % free.len().max(1)) else {
                        continue;
                    };
                    heap.remove(&rid);
                    rids.insert(rid);
                    if let Op::HeapUpdate(_, body) = op {
                        let new = txn.heap_update(&stores.heap, rid, body.clone()).unwrap();
                        heap.insert(new, body.clone());
                        rids.insert(new);
                    } else {
                        txn.heap_delete(&stores.heap, rid).unwrap();
                    }
                }
            }
        }
        match fate {
            Fate::Commit => {
                txn.commit().unwrap();
                model.tree = tree;
                model.heap = heap;
            }
            Fate::Abort => txn.rollback().unwrap(),
            Fate::Crash | Fate::CrashMidRollback(_) => {
                if let Fate::CrashMidRollback(n) = fate {
                    roll_back_partly(&txn, &wal, stores, *n);
                }
                model.frozen_keys.extend(keys);
                model.frozen_rids.extend(rids);
                std::mem::forget(txn);
            }
        }
        if *checkpoint {
            // As `Database::checkpoint` does: flush, then truncate below
            // the oldest in-flight transaction.
            let barrier = wal.current_lsn() + 1;
            let keep_from = txm.oldest_active_lsn().map_or(barrier, |l| l.min(barrier));
            stores.pool.flush_all().unwrap();
            wal.checkpoint(keep_from).unwrap();
        }
    }
    wal.force().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovery_equals_committed_model(
        first in prop::collection::vec(arb_txn(), 1..12),
        second in prop::collection::vec(arb_txn(), 0..8),
        checkpoint_between in any::<bool>(),
    ) {
        let backend = Arc::new(MemBackend::new());
        let log = Arc::new(MemLogStore::new());
        {
            let pool = BufferPool::new(256);
            let space = TableSpace::create(pool.clone(), SPACE, backend.clone()).unwrap();
            HeapTable::create(space.clone()).unwrap();
            BTree::create(space, ANCHOR as usize).unwrap();
            pool.flush_all().unwrap(); // durable empty baseline
        }
        let mut model = Model::default();
        // Each cycle: run, crash (drop the pool without flushing), recover
        // from the backend image and the WAL, compare with the model.
        let mut stores = Stores::open(&backend);
        for txns in [&first, &second] {
            run(&stores, &log, txns, &mut model);
            drop(stores);
            stores = Stores::open(&backend);
            stores.recover(&log);
            let (tree, heap, reserved) = stores.state();
            prop_assert_eq!(&tree, &model.tree);
            prop_assert_eq!(&heap, &model.heap);
            prop_assert_eq!(reserved, 0, "recovery leaves no reserved slot");
            // Recovery finished every loser: nothing stays locked.
            model.frozen_keys.clear();
            model.frozen_rids.clear();
            // The recovered state is what the next cycle starts from:
            // either checkpointed, or redone again by the next recovery.
            if checkpoint_between {
                stores.pool.flush_all().unwrap();
                let wal = Wal::new(log.clone());
                wal.checkpoint(wal.current_lsn() + 1).unwrap();
            }
        }
    }
}

/// One heap page holds committed records A and B. T shrinks A in place and
/// is in flight at the crash; U grows B and commits. Recovery must grow A
/// back: U's grow never took the bytes T's shrink freed.
#[test]
fn crash_with_an_unfinished_shrink_beside_a_committed_grow() {
    let backend = Arc::new(MemBackend::new());
    let log = Arc::new(MemLogStore::new());
    {
        let pool = BufferPool::new(256);
        let space = TableSpace::create(pool.clone(), SPACE, backend.clone()).unwrap();
        HeapTable::create(space.clone()).unwrap();
        BTree::create(space, ANCHOR as usize).unwrap();
        pool.flush_all().unwrap();
    }
    let stores = Stores::open(&backend);
    let wal = Wal::new(log.clone());
    let txm = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    let setup = txm.begin().unwrap();
    let a = setup.heap_insert(&stores.heap, vec![1; 2000]).unwrap();
    let b = setup.heap_insert(&stores.heap, vec![2; 1000]).unwrap();
    setup.commit().unwrap();
    assert_eq!(a.page, b.page);
    let t = txm.begin().unwrap();
    t.heap_update(&stores.heap, a, vec![3; 10]).unwrap();
    let u = txm.begin().unwrap();
    let grown = u.heap_update(&stores.heap, b, vec![4; 3000]).unwrap();
    u.commit().unwrap();
    wal.force().unwrap();
    std::mem::forget(t);
    drop(stores);

    let stores = Stores::open(&backend);
    stores.recover(&log);
    let (_, heap, reserved) = stores.state();
    assert_eq!(
        heap,
        BTreeMap::from([(a, vec![1; 2000]), (grown, vec![4; 3000])])
    );
    assert_eq!(reserved, 0, "recovery leaves no reserved bytes");
}

/// T inserts a record, grows it, shrinks it, and crashes part-way through
/// its rollback, after the compensation that undid the grow shrank the
/// record again. U then grows a neighbour on the same page and commits.
/// Finishing T's rollback reverses those compensations too and passes back
/// through the grown image, which must still fit: the compensating shrink
/// kept its bytes.
#[test]
fn crash_mid_rollback_of_a_grow_beside_a_committed_grow() {
    let backend = Arc::new(MemBackend::new());
    let log = Arc::new(MemLogStore::new());
    {
        let pool = BufferPool::new(256);
        let space = TableSpace::create(pool.clone(), SPACE, backend.clone()).unwrap();
        HeapTable::create(space.clone()).unwrap();
        BTree::create(space, ANCHOR as usize).unwrap();
        pool.flush_all().unwrap();
    }
    let stores = Stores::open(&backend);
    let wal = Wal::new(log.clone());
    let txm = TxnManager::new(Arc::clone(&wal), LockManager::with_defaults());
    let t = txm.begin().unwrap();
    let a = t.heap_insert(&stores.heap, vec![1; 185]).unwrap();
    assert_eq!(t.heap_update(&stores.heap, a, vec![2; 2072]).unwrap(), a);
    t.heap_update(&stores.heap, a, vec![3; 7]).unwrap();
    roll_back_partly(&t, &wal, &stores, 3);
    let u = txm.begin().unwrap();
    let b = u.heap_insert(&stores.heap, vec![4; 100]).unwrap();
    assert_eq!(b.page, a.page);
    let grown = u.heap_update(&stores.heap, b, vec![5; 3000]).unwrap();
    u.commit().unwrap();
    wal.force().unwrap();
    std::mem::forget(t);
    drop(stores);

    let stores = Stores::open(&backend);
    stores.recover(&log);
    let (_, heap, reserved) = stores.state();
    assert_eq!(heap, BTreeMap::from([(grown, vec![5; 3000])]));
    assert_eq!(reserved, 0, "recovery leaves no reserved bytes");
}
