//! Index-based access methods and access-path selection (§4.3, Table 2).
//!
//! "Our approach is to use indexes to quickly identify a small subset of
//! candidates and then perform further processing on them. For small
//! documents, using indexes to identify qualifying documents would be
//! efficient, which we call DocID list access … For large documents … the
//! NodeID list access applies. Since we do not keep complete path information
//! in an XPath value index, when the XPath expression of the index contains a
//! query XPath expression but is not equivalent to it, we use the index for
//! filtering, and re-evaluation … is necessary. When multiple indexes are
//! used to evaluate a single XPath expression, we use DocID ANDing/ORing, or
//! NodeID ANDing/ORing at document level or node level, respectively."
//!
//! Exactness classification follows Table 2's discussion verbatim: all-exact
//! terms give an exact list; one exact term among containment terms still
//! gives an exact list under NodeID-level ANDing; otherwise the list is a
//! filter and re-evaluation runs.

use crate::conc;
use crate::db::{BaseTable, XmlColumn};
use crate::error::{EngineError, Result};
use crate::executor::{CachedPlan, PlanCache, PlanKey, QueryExecutor};
use crate::synopsis::{self, SynopsisTerm};
use crate::traverse::Traverser;
use crate::validx::{IndexEntry, IndexKeys, ValueIndex};
use crate::xmltable::{DocId, LocatedRoots};
use rx_storage::{Rid, Txn};
use rx_xml::name::NameDict;
use rx_xml::nodeid::NodeId;
use rx_xml::value::{encode_key, KeyType};
use rx_xpath::ast::{Axis, CmpOp, Expr, Operand, Path, Step};
use rx_xpath::containment::{classify, IndexMatch};
use rx_xpath::quickxscan::{QuickXScan, ResultItem};
use rx_xpath::QueryTree;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One query result: a node of a document with its string value.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    /// Owning document.
    pub doc: DocId,
    /// The matched node (present for stored-data evaluation).
    pub node: Option<NodeId>,
    /// String value of the matched node.
    pub value: String,
}

/// A key range over encoded key values.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// Lower bound (bytes, inclusive?).
    pub lo: Option<(Vec<u8>, bool)>,
    /// Upper bound (bytes, inclusive?).
    pub hi: Option<(Vec<u8>, bool)>,
}

impl KeyRange {
    fn from_cmp(op: CmpOp, key: Vec<u8>) -> Option<KeyRange> {
        Some(match op {
            CmpOp::Eq => KeyRange {
                lo: Some((key.clone(), true)),
                hi: Some((key, true)),
            },
            CmpOp::Lt => KeyRange {
                lo: None,
                hi: Some((key, false)),
            },
            CmpOp::Le => KeyRange {
                lo: None,
                hi: Some((key, true)),
            },
            CmpOp::Gt => KeyRange {
                lo: Some((key, false)),
                hi: None,
            },
            CmpOp::Ge => KeyRange {
                lo: Some((key, true)),
                hi: None,
            },
            CmpOp::Ne => return None,
        })
    }

    /// The intersection of two ranges: the tighter bound on each side, the
    /// exclusive one when both sides name the same key. `None` when no key
    /// lies in both ranges.
    fn intersect(&self, other: &KeyRange) -> Option<KeyRange> {
        let lo = tighter_bound(&self.lo, &other.lo, Ordering::Greater);
        let hi = tighter_bound(&self.hi, &other.hi, Ordering::Less);
        if let (Some((l, l_incl)), Some((h, h_incl))) = (&lo, &hi) {
            match l.cmp(h) {
                Ordering::Greater => return None,
                Ordering::Equal if !(*l_incl && *h_incl) => return None,
                _ => {}
            }
        }
        Some(KeyRange { lo, hi })
    }

    /// Scan this range of `index`, counting the entries read.
    fn scan(&self, index: &ValueIndex, stats: &mut AccessStats) -> Result<Vec<IndexEntry>> {
        let entries = index.range(
            self.lo.as_ref().map(|(k, i)| (k.as_slice(), *i)),
            self.hi.as_ref().map(|(k, i)| (k.as_slice(), *i)),
        )?;
        stats.index_entries += entries.len() as u64;
        Ok(entries)
    }
}

/// The tighter of two optional bounds: the one whose key compares `wins`
/// against the other (`Greater` for lower bounds, `Less` for upper bounds);
/// on equal keys the bound is inclusive only if both are.
fn tighter_bound(
    a: &Option<(Vec<u8>, bool)>,
    b: &Option<(Vec<u8>, bool)>,
    wins: Ordering,
) -> Option<(Vec<u8>, bool)> {
    match (a, b) {
        (None, x) | (x, None) => x.clone(),
        (Some((ka, ia)), Some((kb, ib))) => Some(match ka.cmp(kb) {
            Ordering::Equal => (ka.clone(), *ia && *ib),
            o if o == wins => (ka.clone(), *ia),
            _ => (kb.clone(), *ib),
        }),
    }
}

/// One index term of a plan: an index, the key range to scan, and how the
/// index path relates to the query's access path.
pub struct IndexTerm {
    /// The index to scan.
    pub index: Arc<ValueIndex>,
    /// Scan range.
    pub range: KeyRange,
    /// Exact vs containment (filtering) match.
    pub match_kind: IndexMatch,
    /// The access path this term covers (for explain output).
    pub access_path: String,
}

impl fmt::Debug for IndexTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IndexTerm({} {:?} on {})",
            self.index.def.name, self.match_kind, self.access_path
        )
    }
}

/// How multiple terms combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Conjunctive: ANDing.
    And,
    /// Disjunctive: ORing.
    Or,
}

/// Candidate granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// DocID lists: every candidate document is evaluated.
    DocId,
    /// An exact NodeID list whose anchor nodes are the result: answered from
    /// the anchors without evaluating a document (large documents).
    NodeId,
}

/// A selected access plan.
pub enum AccessPlan {
    /// Evaluate by scanning every document with QuickXScan (the relational-
    /// scan analogue).
    FullScan,
    /// Index access: scan term ranges and combine candidate lists. A DocID
    /// list evaluates its candidate documents; a NodeID list answers its
    /// anchors.
    Index {
        /// The terms.
        terms: Vec<IndexTerm>,
        /// AND vs OR combination.
        combine: Combine,
        /// Candidate granularity.
        granularity: Granularity,
        /// Depth of the anchor step (the step whose predicates the terms
        /// decide): a NodeID list's entries map to their ancestor at this
        /// depth.
        anchor_depth: usize,
        /// Is the combined candidate list exact (it decides the indexed
        /// predicates)? Always true for a NodeID list.
        exact: bool,
    },
}

impl AccessPlan {
    /// Human-readable explain output.
    pub fn explain(&self) -> String {
        match self {
            AccessPlan::FullScan => "FULL SCAN (QuickXScan over every document)".to_string(),
            AccessPlan::Index {
                terms,
                combine,
                granularity,
                exact,
                ..
            } => {
                let mut s = String::new();
                s.push_str(match granularity {
                    Granularity::DocId => "DocID",
                    Granularity::NodeId => "NodeID",
                });
                s.push_str(" list access");
                if terms.len() > 1 {
                    s.push_str(match combine {
                        Combine::And => " with ANDing",
                        Combine::Or => " with ORing",
                    });
                }
                s.push_str(if *exact { " (exact" } else { " (filtering" });
                s.push_str(match granularity {
                    Granularity::DocId => ", re-evaluation)",
                    Granularity::NodeId => ", no re-evaluation)",
                });
                for t in terms {
                    s.push_str(&format!(
                        "\n  index {} [{}] {:?} via {}",
                        t.index.def.name, t.index.def.path_text, t.match_kind, t.access_path
                    ));
                }
                s
            }
        }
    }
}

/// Execution counters for the E6 experiment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Index entries scanned (an exact NodeID list scans its terms twice:
    /// before and after its S locks).
    pub index_entries: u64,
    /// Candidate documents / nodes after combining.
    pub candidates: u64,
    /// Documents fully (re-)evaluated.
    pub docs_evaluated: u64,
    /// Candidates whose synopsis ruled them out under their S lock, before
    /// any of their records was read (DESIGN.md §19). They do not count in
    /// `docs_evaluated`.
    pub docs_pruned: u64,
    /// Heap records fetched during evaluation.
    pub records_fetched: u64,
    /// Element contents the scan declined and traversal jumped over.
    pub subtrees_skipped: u64,
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Strip predicates from steps `0..=idx` of `path` and append `tail`,
/// yielding the access path of a predicate operand.
fn access_path(path: &Path, idx: usize, tail: &Path) -> Path {
    let mut steps: Vec<Step> = path.steps[..=idx]
        .iter()
        .map(|s| Step {
            axis: s.axis,
            test: s.test.clone(),
            predicates: Vec::new(),
        })
        .collect();
    steps.extend(tail.steps.iter().cloned());
    Path {
        absolute: true,
        steps,
    }
}

/// Try to express one comparison as an index term against any of `indexes`.
fn term_for(
    indexes: &[Arc<ValueIndex>],
    full_path: &Path,
    op: CmpOp,
    literal: &str,
) -> Option<IndexTerm> {
    let mut best: Option<IndexTerm> = None;
    for idx in indexes {
        let m = classify(&idx.path, full_path);
        if m == IndexMatch::None {
            continue;
        }
        // Terms are tokens, not values: a full-text index never answers a
        // comparison.
        let IndexKeys::Typed(key_type) = idx.def.keys else {
            continue;
        };
        let Some(key) = encode_key(key_type, literal) else {
            continue; // literal does not cast to the index key type
        };
        // String indexes can serve ordering comparisons only lexicographically,
        // which differs from numeric XPath semantics — restrict them to Eq.
        if key_type == KeyType::String && op != CmpOp::Eq {
            continue;
        }
        let range = KeyRange::from_cmp(op, key)?;
        let term = IndexTerm {
            index: Arc::clone(idx),
            range,
            match_kind: m,
            access_path: full_path.to_string(),
        };
        // Prefer exact over filtering matches.
        let better = match (&best, m) {
            (None, _) => true,
            (Some(b), IndexMatch::Exact) if b.match_kind == IndexMatch::Filtering => true,
            _ => false,
        };
        if better {
            best = Some(term);
        }
    }
    best
}

/// The index terms found for a predicate (sub)expression: the terms, how
/// they combine, and whether they cover the expression fully (`false` when
/// some part could not be turned into an index term, so the combined list
/// only filters and verification is mandatory).
type Decomposed = (Vec<IndexTerm>, Combine, bool);

/// True when `d` holds an OR list of two or more terms.
fn is_or_list(d: &Decomposed) -> bool {
    d.0.len() > 1 && d.1 == Combine::Or
}

/// Conjoin two decompositions. An OR list cannot be flattened into an AND
/// list (`a ∩ b ∩ c` misses what `a ∩ (b ∪ c)` holds), so when one side is
/// an OR list the other side's terms alone are kept — a superset of the
/// candidates — and verification becomes mandatory.
fn conjoin(a: Decomposed, b: Decomposed) -> Decomposed {
    let covered = a.2 && b.2;
    if a.0.is_empty() {
        return (b.0, b.1, covered);
    }
    if b.0.is_empty() {
        return (a.0, a.1, covered);
    }
    match (is_or_list(&a), is_or_list(&b)) {
        (false, false) => {
            let (mut terms, _, _) = a;
            terms.extend(b.0);
            (terms, Combine::And, covered)
        }
        (true, _) => (b.0, b.1, false),
        (false, true) => (a.0, a.1, false),
    }
}

/// Decompose a predicate expression into indexable comparison terms.
fn decompose(expr: &Expr, indexes: &[Arc<ValueIndex>], path: &Path, anchor: usize) -> Decomposed {
    match expr {
        Expr::And(a, b) => conjoin(
            decompose(a, indexes, path, anchor),
            decompose(b, indexes, path, anchor),
        ),
        Expr::Or(a, b) => {
            let da = decompose(a, indexes, path, anchor);
            let db = decompose(b, indexes, path, anchor);
            // ORing is only usable when BOTH sides are fully indexable;
            // otherwise the index list would miss qualifying candidates. An
            // AND list on either side is ORed term by term, a superset of
            // its candidates, so the result then needs verification.
            if da.2 && db.2 && !da.0.is_empty() && !db.0.is_empty() {
                let flat = |d: &Decomposed| d.0.len() == 1 || d.1 == Combine::Or;
                let covered = flat(&da) && flat(&db);
                let mut t = da.0;
                t.extend(db.0);
                (t, Combine::Or, covered)
            } else {
                (Vec::new(), Combine::Or, false)
            }
        }
        Expr::Cmp(op, lhs, rhs) => {
            let (p, op, lit) = match (lhs, rhs) {
                (Operand::Path(p), Operand::Literal(l)) => (p, *op, l.clone()),
                (Operand::Path(p), Operand::Number(n)) => {
                    (p, *op, rx_xml::value::format_double(*n))
                }
                (Operand::Literal(l), Operand::Path(p)) => (p, op.flip(), l.clone()),
                (Operand::Number(n), Operand::Path(p)) => {
                    (p, op.flip(), rx_xml::value::format_double(*n))
                }
                _ => return (Vec::new(), Combine::And, false),
            };
            if !p.is_simple() || p.absolute {
                return (Vec::new(), Combine::And, false);
            }
            let full = access_path(path, anchor, p);
            match term_for(indexes, &full, op, &lit) {
                Some(t) => (vec![t], Combine::And, true),
                None => (Vec::new(), Combine::And, false),
            }
        }
        _ => (Vec::new(), Combine::And, false),
    }
}

/// Choose an access plan for `path` against the indexes of `column`.
/// `prefer_nodeid` selects a NodeID list (large documents) where one can
/// answer the query from its anchors: the anchor prefix uses only child
/// axes (so the anchor depth is fixed), the list is exact at node level,
/// it covers every predicate and the result is the anchor. Every other
/// index plan is a DocID list.
pub fn plan(path: &Path, column: &XmlColumn, prefer_nodeid: bool) -> AccessPlan {
    let indexes = column.indexes();
    if indexes.is_empty() {
        return AccessPlan::FullScan;
    }
    // Find the anchor: the step carrying predicates (the last one wins when
    // several do; earlier ones then force verification).
    let Some(anchor) = path.steps.iter().rposition(|s| !s.predicates.is_empty()) else {
        return AccessPlan::FullScan;
    };
    // Predicate brackets are a conjunction: `[p][q]` ≡ `[p and q]`.
    let (terms, combine, mut covered) = path.steps[anchor]
        .predicates
        .iter()
        .map(|p| decompose(p, &indexes, path, anchor))
        .reduce(conjoin)
        .expect("the anchor step has predicates");
    if terms.is_empty() {
        return AccessPlan::FullScan;
    }
    // Other steps with predicates force verification.
    let other_preds = path
        .steps
        .iter()
        .enumerate()
        .any(|(i, s)| i != anchor && !s.predicates.is_empty());
    covered &= !other_preds;

    // Exactness per Table 2: all exact → exact; under NodeID-level ANDing a
    // single exact term keeps the list exact; otherwise filtering.
    let all_exact = terms.iter().all(|t| t.match_kind == IndexMatch::Exact);
    let node_exact = all_exact
        || (combine == Combine::And && terms.iter().any(|t| t.match_kind == IndexMatch::Exact));
    let anchor_child_only = path.steps[..=anchor].iter().all(|s| s.axis == Axis::Child);
    // Does the query ask for exactly the anchor nodes?
    let result_is_anchor = anchor == path.steps.len() - 1;
    let answers = node_exact && covered && result_is_anchor && anchor_child_only;
    let (granularity, exact) = if prefer_nodeid && answers {
        (Granularity::NodeId, true)
    } else {
        (Granularity::DocId, all_exact && terms.len() == 1)
    };
    AccessPlan::Index {
        terms,
        combine,
        granularity,
        anchor_depth: anchor + 1,
        exact,
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One lane's document evaluator: a single QuickXScan and a single
/// traverser that evaluate every document of the lane in turn. The scanner
/// is reset between documents — after a failed or missing one too — so each
/// document's hits, node IDs and match order are exactly those of a fresh
/// scanner, while instances, operand buffers, the name memo and the
/// traverser's key buffers are reused.
pub struct DocScanner<'x, 'q, 'd> {
    traverser: Traverser<'x>,
    scan: QuickXScan<'q, 'd>,
    items: Vec<ResultItem>,
    roots: LocatedRoots,
}

impl<'x, 'q, 'd> DocScanner<'x, 'q, 'd> {
    /// A lane evaluator for `tree` over documents of `column`. With
    /// `publish`, the caller's transaction holds the S lock of every
    /// document the lane evaluates and has logged nothing, so its full
    /// traversals may publish document-cache snapshots (DESIGN.md §11.2).
    pub fn new(
        column: &'x XmlColumn,
        tree: &'q QueryTree,
        dict: &'d NameDict,
        publish: bool,
    ) -> Self {
        DocScanner {
            traverser: Traverser::unbound(column.xml_table(), publish),
            scan: QuickXScan::new(tree, dict),
            items: Vec::new(),
            roots: LocatedRoots::default(),
        }
    }

    /// Evaluate the tree over document `doc`, appending its hits to `hits`.
    /// The root record is found with the §3.4 NodeID-index probe. On error
    /// nothing is appended and the scanner is ready for the next document.
    pub fn evaluate(
        &mut self,
        doc: DocId,
        stats: &mut AccessStats,
        hits: &mut Vec<QueryHit>,
    ) -> Result<()> {
        self.evaluate_at(doc, None, stats, hits)
    }

    /// [`DocScanner::evaluate`] with the document's root entry `(upper,
    /// rid)` already located (see
    /// [`crate::xmltable::XmlTable::locate_roots`]), so the
    /// traversal does not probe for it.
    pub fn evaluate_at(
        &mut self,
        doc: DocId,
        root: Option<(&[u8], Rid)>,
        stats: &mut AccessStats,
        hits: &mut Vec<QueryHit>,
    ) -> Result<()> {
        let t = &mut self.traverser;
        t.rebind(doc);
        if let Some((upper, rid)) = root {
            t.seed_root(upper, rid);
        }
        if let Err(e) = t.run(&mut self.scan) {
            self.scan.reset();
            return Err(e);
        }
        stats.docs_evaluated += 1;
        stats.records_fetched += t.stats.records_fetched;
        stats.subtrees_skipped += t.stats.subtrees_skipped;
        self.scan.finish_into(&mut self.items)?;
        hits.extend(self.items.drain(..).map(|i| QueryHit {
            doc,
            node: i.node,
            value: i.value,
        }));
        Ok(())
    }

    /// Evaluate a run of candidates in DocID order, appending their hits. A
    /// dense run ([`roots_by_range_scan`]) first locates every root record
    /// with one NodeID-index range scan; a sparse one probes per document.
    /// A candidate that no longer exists is skipped (see [`evaluate_docs`]).
    pub fn evaluate_run(
        &mut self,
        docs: &[DocId],
        stats: &mut AccessStats,
        hits: &mut Vec<QueryHit>,
    ) -> Result<()> {
        let mut roots = std::mem::take(&mut self.roots);
        let located = roots_by_range_scan(docs);
        if located {
            self.traverser.xml().locate_roots(docs, &mut roots)?;
        }
        let mut run = || -> Result<()> {
            for (i, &doc) in docs.iter().enumerate() {
                let root = if located { roots.get(i) } else { None };
                match self.evaluate_at(doc, root, stats, hits) {
                    Err(EngineError::NotFound { .. }) => {}
                    r => r?,
                }
            }
            Ok(())
        };
        let r = run();
        self.roots = roots;
        r
    }
}

/// Largest DocID span per candidate at which a lane locates its root
/// records with one range scan of the NodeID index instead of one probe per
/// document. The scan reads every index entry in the lane's DocID window,
/// candidate or not, so it pays off only while candidates are dense: E5d
/// (EXPERIMENTS.md) times both at densities 1, 1/8, 1/64 and 1/1000.
pub const ROOT_SCAN_SPAN: u64 = 64;

/// Whether a lane evaluating `docs` (ascending DocIDs) locates their roots
/// with one NodeID-index range scan: at least two candidates whose DocID
/// span is at most [`ROOT_SCAN_SPAN`] per candidate.
pub fn roots_by_range_scan(docs: &[DocId]) -> bool {
    match (docs.first(), docs.last()) {
        (Some(&first), Some(&last)) if docs.len() >= 2 && last >= first => {
            last - first < ROOT_SCAN_SPAN.saturating_mul(docs.len() as u64)
        }
        _ => false,
    }
}

/// Fewest candidates (documents, or the anchors of an exact NodeID list)
/// an executor lane must get before a batch fans out. Handing a lane to a
/// pool thread costs a wake-up and a merge, which a few small documents do
/// not repay: E11d (EXPERIMENTS.md) times serial against 2-lane evaluation
/// of 1 to 256 cached product documents, and on a 2-vCPU host 2 lanes break
/// even at about 64 candidates.
pub const MIN_DOCS_PER_LANE: usize = 32;

/// How many lanes a batch of `candidates` is run on: the executor's lanes,
/// capped so every lane gets at least [`MIN_DOCS_PER_LANE`] candidates. One
/// lane means the calling thread runs the whole batch.
pub fn fan_out_lanes(exec: Option<&QueryExecutor>, candidates: usize) -> usize {
    exec.map_or(1, |e| {
        e.workers().min(candidates / MIN_DOCS_PER_LANE).max(1)
    })
}

/// Evaluate `tree` over the candidate documents `docs` (in DocID order) on
/// `lanes` lanes of `exec` (the query path passes [`fan_out_lanes`]). Every
/// candidate is S-locked in `txn`, in DocID order, before any lane starts,
/// so lanes only read documents the transaction holds locks on and a lock
/// timeout aborts the query before fan-out. A candidate gathered before its
/// lock was granted may since have been deleted by a transaction that
/// committed in between (the lock guarantees we never see a *partial*
/// document, not that the document still exists), so `NotFound` skips the
/// document instead of failing.
///
/// Contiguous, evenly sized partitions of the candidate list keep
/// per-partition results in document order, so concatenating them in
/// partition order reproduces exactly the serial output; per-partition
/// stats are summed. The first error in partition (= document) order
/// propagates, matching the serial loop. Runs serially when no executor is
/// supplied or `lanes` is 1.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_docs(
    exec: Option<&QueryExecutor>,
    lanes: usize,
    txn: &Txn,
    table: &BaseTable,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    docs: Vec<DocId>,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    conc::lock_documents_shared(txn, table.def.id, &docs)?;
    evaluate_locked(exec, lanes, txn, column, dict, tree, docs, stats)
}

/// [`evaluate_docs`] once the caller holds the S lock of every candidate.
#[allow(clippy::too_many_arguments)]
fn evaluate_locked(
    exec: Option<&QueryExecutor>,
    lanes: usize,
    txn: &Txn,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    docs: Vec<DocId>,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    // Lanes of a read-only transaction read committed documents only, so
    // they may publish cache snapshots.
    let publish = !txn.has_logged();
    let (column, dict, tree) = (Arc::clone(column), Arc::clone(dict), Arc::clone(tree));
    // One lane: a single scanner over a contiguous run of candidates. A
    // dense run's roots are located by a range scan that starts only now,
    // after every S lock above is granted (§9.2 order), so the entries of
    // locked documents cannot change under it.
    run_lanes(exec, lanes, docs, stats, move |docs, stats| {
        let mut hits = Vec::new();
        DocScanner::new(&column, &tree, &dict, publish).evaluate_run(&docs, stats, &mut hits)?;
        Ok(hits)
    })
}

/// The lane runner every plan uses: split `items` into `lanes` contiguous,
/// evenly sized windows and run `lane` on each, on `exec`'s pool. Each
/// lane's hits are in its window's order, so concatenating them in window
/// order reproduces exactly the serial output; per-lane stats are summed.
/// The first error in window (= document) order propagates, matching the
/// serial loop. Runs `lane` once over every item on the calling thread
/// when no executor is supplied or `lanes` is 1.
fn run_lanes<T, F>(
    exec: Option<&QueryExecutor>,
    lanes: usize,
    mut items: Vec<T>,
    stats: &mut AccessStats,
    lane: F,
) -> Result<Vec<QueryHit>>
where
    T: Send + 'static,
    F: Fn(Vec<T>, &mut AccessStats) -> Result<Vec<QueryHit>> + Send + Sync + 'static,
{
    let lanes = lanes.min(items.len());
    let exec = match exec {
        Some(exec) if lanes > 1 => exec,
        _ => return lane(items, stats),
    };
    type PartResult = Result<(Vec<QueryHit>, AccessStats)>;
    let lane = Arc::new(lane);
    let n = items.len();
    let mut tasks: Vec<Box<dyn FnOnce() -> PartResult + Send>> = Vec::with_capacity(lanes);
    // Windows are cut off the end, so each item moves once.
    for i in (0..lanes).rev() {
        let window = items.split_off(i * n / lanes);
        let lane = Arc::clone(&lane);
        tasks.push(Box::new(move || {
            let mut stats = AccessStats::default();
            let hits = lane(window, &mut stats)?;
            Ok((hits, stats))
        }));
    }
    tasks.reverse();
    let mut hits = Vec::new();
    for r in exec.run_batch(tasks) {
        let (h, s) = r?;
        hits.extend(h);
        stats.docs_evaluated += s.docs_evaluated;
        stats.records_fetched += s.records_fetched;
        stats.subtrees_skipped += s.subtrees_skipped;
    }
    Ok(hits)
}

/// Scan the ranges of a plan's index terms, returning one entry list per
/// scan, to be combined with `combine`.
///
/// Under `Combine::And`, terms on the same index whose multi-valued flag is
/// clear are answered by one scan of the intersection of their ranges (no
/// scan at all when it is empty) instead of one scan per term. With at most
/// one entry per document, a document (or anchor node) lies in every term's
/// list exactly when its single entry lies in every range, so the combined
/// candidates are the same. The flag is read here, at execution time, since
/// a cached plan outlives any flip, and read again after the scan: every
/// entry the scan could have seen was inserted after its document raised the
/// flag, so a clear flag after the scan proves the intersection was sound,
/// and a set one sends the group back to one scan per term (DESIGN.md §9.5).
/// `Combine::Or`, single terms and multi-valued indexes scan term by term.
fn scan_terms(
    terms: &[IndexTerm],
    combine: Combine,
    stats: &mut AccessStats,
) -> Result<Vec<Vec<IndexEntry>>> {
    let mut groups: Vec<Vec<&IndexTerm>> = Vec::with_capacity(terms.len());
    for t in terms {
        match groups
            .iter_mut()
            .find(|g| combine == Combine::And && Arc::ptr_eq(&g[0].index, &t.index))
        {
            Some(g) => g.push(t),
            None => groups.push(vec![t]),
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        let index = &group[0].index;
        if group.len() > 1 && !index.is_multi_valued() {
            let range = group[1..]
                .iter()
                .try_fold(group[0].range.clone(), |r, t| r.intersect(&t.range));
            let entries = match range {
                Some(r) => r.scan(index, stats)?,
                None => Vec::new(),
            };
            if !index.is_multi_valued() {
                out.push(entries);
                continue;
            }
        }
        for t in group {
            out.push(t.range.scan(&t.index, stats)?);
        }
    }
    Ok(out)
}

/// Scan the terms of a NodeID plan, map each entry of a document that
/// passes `keep` to its ancestor at `anchor_depth` (a Dewey prefix
/// truncation), and combine the per-scan lists.
fn anchor_nodes(
    terms: &[IndexTerm],
    combine: Combine,
    anchor_depth: usize,
    keep: impl Fn(DocId) -> bool,
    stats: &mut AccessStats,
) -> Result<BTreeSet<(DocId, NodeId)>> {
    let sets = scan_terms(terms, combine, stats)?
        .iter()
        .map(|es| {
            es.iter()
                .filter(|e| keep(e.doc))
                .filter_map(|e| ancestor_at_depth(&e.node, anchor_depth).map(|a| (e.doc, a)))
                .collect()
        })
        .collect();
    Ok(combine_sets(sets, combine))
}

/// Execute a plan with an already-compiled tree in `txn`, optionally
/// fanning candidate-document evaluation across `exec`'s worker lanes. No
/// synopsis is read: every candidate is evaluated.
///
/// The read follows the §5.1 DocID-locking protocol: "care must be taken
/// also to prevent reading a partially inserted document by using a lock".
/// Candidates are gathered from index pages, then the table is IS-locked and
/// every candidate document S-locked in DocID order before any document is
/// read, so a reader waits for (or aborts against) a transaction that is
/// inserting, deleting or updating a candidate instead of reading it
/// half-written.
pub fn execute_tree(
    plan: &AccessPlan,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    exec: Option<&QueryExecutor>,
    txn: &Txn,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    execute(plan, &[], table, column, dict, tree, exec, txn)
}

/// Execute a prepared query ([`prepare`]): [`execute_tree`] that, once the
/// candidates' S locks are granted and before fan-out, drops the documents
/// whose synopsis rules out one of the plan's synopsis terms, so the lanes
/// are chosen for the survivors only (DESIGN.md §19).
pub fn execute_prepared(
    prepared: &CachedPlan,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    exec: Option<&QueryExecutor>,
    txn: &Txn,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    execute(
        &prepared.plan,
        &prepared.synopsis,
        table,
        column,
        dict,
        &prepared.tree,
        exec,
        txn,
    )
}

#[allow(clippy::too_many_arguments)]
fn execute(
    plan: &AccessPlan,
    synopsis: &[SynopsisTerm],
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    exec: Option<&QueryExecutor>,
    txn: &Txn,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    let mut stats = AccessStats::default();
    let mut rids = None;
    let docs = match plan {
        AccessPlan::FullScan => {
            let (docs, rows) = all_rows(table)?;
            rids = Some(rows);
            docs
        }
        AccessPlan::Index {
            terms,
            combine,
            granularity: Granularity::DocId,
            ..
        } => {
            let sets: Vec<BTreeSet<DocId>> = scan_terms(terms, *combine, &mut stats)?
                .iter()
                .map(|es| es.iter().map(|e| e.doc).collect())
                .collect();
            combine_sets(sets, *combine).into_iter().collect()
        }
        AccessPlan::Index {
            terms,
            combine,
            granularity: Granularity::NodeId,
            anchor_depth,
            ..
        } => {
            // The entries below are read before any lock, so one may belong
            // to a value that an uncommitted or since committed update has
            // replaced. While a document's S lock is held no writer can
            // change its entries, so the terms are scanned again under the
            // locks and only that second list, restricted to the locked
            // documents, is answered (DESIGN.md §14.3).
            let nodes = anchor_nodes(terms, *combine, *anchor_depth, |_| true, &mut stats)?;
            stats.candidates = nodes.len() as u64;
            let mut docs: Vec<DocId> = nodes.iter().map(|(d, _)| *d).collect();
            docs.dedup();
            conc::lock_documents_shared(txn, table.def.id, &docs)?;
            let locked = |d: DocId| docs.binary_search(&d).is_ok();
            let nodes: Vec<(DocId, NodeId)> =
                anchor_nodes(terms, *combine, *anchor_depth, locked, &mut stats)?
                    .into_iter()
                    .collect();
            let lanes = fan_out_lanes(exec, nodes.len());
            let column = Arc::clone(column);
            let hits = run_lanes(exec, lanes, nodes, &mut stats, move |nodes, stats| {
                answer_anchors(&column, nodes, stats)
            })?;
            return Ok((hits, stats));
        }
    };
    stats.candidates = docs.len() as u64;
    conc::lock_documents_shared(txn, table.def.id, &docs)?;
    let docs = synopsis::prune(table, column, synopsis, docs, rids, &mut stats)?;
    let lanes = fan_out_lanes(exec, docs.len());
    let hits = evaluate_locked(exec, lanes, txn, column, dict, tree, docs, &mut stats)?;
    Ok((hits, stats))
}

/// One lane of an exact NodeID list: the string value of each anchor of a
/// window of the `(doc, anchor)` list, without evaluating its document. One
/// traverser, rebound per document, serves every anchor: consecutive
/// anchors of a document share its document-cache snapshot and the
/// ceiling-probe memo, so anchors that live in the same record cost one
/// fetch, not one each.
fn answer_anchors(
    column: &XmlColumn,
    nodes: Vec<(DocId, NodeId)>,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    let mut t = Traverser::unbound(column.xml_table(), false);
    let mut bound = None;
    let mut hits = Vec::with_capacity(nodes.len());
    for (doc, node) in nodes {
        if bound != Some(doc) {
            stats.records_fetched += t.stats.records_fetched;
            t.rebind(doc);
            bound = Some(doc);
        }
        let value = t.string_value(&node)?;
        hits.push(QueryHit {
            doc,
            node: Some(node),
            value,
        });
    }
    stats.records_fetched += t.stats.records_fetched;
    Ok(hits)
}

/// Compile + plan a query exactly once, through `cache` when one is given.
/// The cache key is `(table id, column, canonical path text, prefer_nodeid)`
/// so differently written but identical queries share an entry; a miss
/// compiles outside the cache lock, once however many callers race on the
/// key, and publishes the result.
pub fn prepare(
    cache: Option<&PlanCache>,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    path: &Path,
    prefer_nodeid: bool,
) -> Result<Arc<CachedPlan>> {
    let build = || -> Result<Arc<CachedPlan>> {
        let plan = plan(path, column, prefer_nodeid);
        Ok(Arc::new(CachedPlan {
            tree: Arc::new(QueryTree::compile(path)?),
            synopsis: synopsis_terms(path, &plan),
            plan: Arc::new(plan),
        }))
    };
    match cache {
        Some(c) => c.get_or_build(
            PlanKey {
                table: table.def.id,
                column: column.name.clone(),
                path: path.to_string(),
                prefer_nodeid,
            },
            build,
        ),
        None => build(),
    }
}

/// The synopsis terms a plan checks (DESIGN.md §19.2): every decidable
/// conjunct of a full scan; those of a DocID list that none of its ANDed
/// index terms already answers; none for a NodeID list.
fn synopsis_terms(path: &Path, plan: &AccessPlan) -> Vec<SynopsisTerm> {
    let conjuncts = synopsis::conjuncts(path);
    let answered = |c: &synopsis::Conjunct<'_>| match plan {
        AccessPlan::FullScan => false,
        AccessPlan::Index {
            granularity: Granularity::NodeId,
            ..
        } => true,
        AccessPlan::Index {
            terms,
            combine,
            anchor_depth,
            ..
        } => {
            let anchor = anchor_depth - 1;
            let and = *combine == Combine::And || terms.len() == 1;
            and && c.step == Some(anchor)
                && c.operand.is_simple()
                && !c.operand.absolute
                && terms.iter().any(|t| {
                    let IndexKeys::Typed(key_type) = t.index.def.keys else {
                        return false;
                    };
                    t.access_path == access_path(path, anchor, c.operand).to_string()
                        && encode_key(key_type, c.literal)
                            .and_then(|k| KeyRange::from_cmp(CmpOp::Eq, k))
                            .is_some_and(|r| r == t.range)
                })
        }
    };
    conjuncts
        .iter()
        .filter(|c| !answered(c))
        .map(|c| c.term)
        .collect()
}

/// All DocIDs of a table, from the DocID index.
pub fn all_docids(table: &Arc<BaseTable>) -> Result<Vec<DocId>> {
    Ok(all_rows(table)?.0)
}

/// All DocIDs of a table and their base-row RIDs, in DocID order, from one
/// scan of the DocID index.
pub fn all_rows(table: &Arc<BaseTable>) -> Result<(Vec<DocId>, Vec<Rid>)> {
    let (mut docs, mut rids) = (Vec::new(), Vec::new());
    table.docid_index().scan_all(|k, v| {
        if let Ok(b) = <[u8; 8]>::try_from(k) {
            docs.push(u64::from_be_bytes(b));
            rids.push(Rid::from_u64(v));
        }
        true
    })?;
    Ok((docs, rids))
}

fn combine_sets<T: Ord + Clone>(mut sets: Vec<BTreeSet<T>>, combine: Combine) -> BTreeSet<T> {
    match combine {
        Combine::Or => {
            let mut out = BTreeSet::new();
            for s in sets {
                out.extend(s);
            }
            out
        }
        Combine::And => {
            if sets.is_empty() {
                return BTreeSet::new();
            }
            let first = sets.remove(0);
            sets.into_iter()
                .fold(first, |acc, s| acc.intersection(&s).cloned().collect())
        }
    }
}

/// The ancestor of `node` at exactly `depth` levels below the root, if the
/// node is at least that deep (Dewey prefix truncation).
pub fn ancestor_at_depth(node: &NodeId, depth: usize) -> Option<NodeId> {
    let levels = node.levels().ok()?;
    if levels.len() < depth {
        return None;
    }
    let mut id = NodeId::root();
    for rel in &levels[..depth] {
        id = id.child(rel);
    }
    Some(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ColValue, ColumnKind, Database};
    use rx_xpath::XPathParser;

    fn catalog_doc(id: u32, price: f64, discount: f64) -> String {
        format!(
            "<Catalog><Categories><Product><ProductName>P{id}</ProductName>\
             <RegPrice>{price}</RegPrice><Discount>{discount}</Discount>\
             </Product></Categories></Catalog>"
        )
    }

    fn setup() -> (Arc<Database>, Arc<BaseTable>) {
        let db = Database::create_in_memory().unwrap();
        let t = db
            .create_table("products", &[("doc", ColumnKind::Xml)])
            .unwrap();
        db.create_value_index(
            "products",
            "price_idx",
            "doc",
            "/Catalog/Categories/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        db.create_value_index("products", "disc_idx", "doc", "//Discount", KeyType::Double)
            .unwrap();
        for i in 0..20u32 {
            let price = 10.0 + f64::from(i) * 20.0; // 10..390
            let discount = f64::from(i % 4) * 0.1; // 0, .1, .2, .3
            db.insert_row(&t, &[ColValue::Xml(catalog_doc(i, price, discount))])
                .unwrap();
        }
        (db, t)
    }

    fn q(s: &str) -> Path {
        XPathParser::new().parse(s).unwrap()
    }

    /// Execute `plan` serially in a read-only transaction of its own.
    fn execute(
        db: &Database,
        plan: &AccessPlan,
        t: &Arc<BaseTable>,
        path: &Path,
    ) -> (Vec<QueryHit>, AccessStats) {
        let col = t.xml_column("doc").unwrap();
        let tree = Arc::new(QueryTree::compile(path).unwrap());
        let txn = db.begin().unwrap();
        let out = execute_tree(plan, t, col, db.dict(), &tree, None, &txn).unwrap();
        txn.commit().unwrap();
        out
    }

    #[test]
    fn table2_case1_docid_list() {
        // Query: /Catalog/Categories/Product[RegPrice > 100]
        // Index: /Catalog/Categories/Product/RegPrice as double → exact.
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product[RegPrice > 100]");
        let plan = plan(&path, col, false);
        let explain = plan.explain();
        assert!(explain.contains("DocID list access"), "{explain}");
        assert!(explain.contains("Exact"), "{explain}");
        let (hits, stats) = execute(&db, &plan, &t, &path);
        // Prices 110..390 → 15 products.
        assert_eq!(hits.len(), 15);
        assert_eq!(stats.candidates, 15);
        // Only candidate docs were evaluated (vs 20 for a scan).
        assert_eq!(stats.docs_evaluated, 15);
    }

    #[test]
    fn table2_case2_filtering() {
        // Query predicate on Discount; index //Discount contains the access
        // path → filtering.
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product[Discount > 0.15]");
        let plan = plan(&path, col, false);
        let explain = plan.explain();
        assert!(explain.contains("Filtering"), "{explain}");
        let (hits, _) = execute(&db, &plan, &t, &path);
        // Discount 0.2 or 0.3 → i%4 in {2,3} → 10 products.
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn table2_case3_anding() {
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.15]");
        let plan = plan(&path, col, false);
        let explain = plan.explain();
        assert!(explain.contains("ANDing"), "{explain}");
        let (hits, stats) = execute(&db, &plan, &t, &path);
        let scan_hits = {
            let (h, _) = execute(&db, &AccessPlan::FullScan, &t, &path);
            h
        };
        assert_eq!(hits.len(), scan_hits.len());
        assert!(stats.candidates <= 15);
        assert!(!hits.is_empty());
    }

    #[test]
    fn oring() {
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product[RegPrice < 50 or Discount > 0.25]");
        let plan = plan(&path, col, false);
        assert!(plan.explain().contains("ORing"), "{}", plan.explain());
        let (hits, _) = execute(&db, &plan, &t, &path);
        let (scan_hits, _) = execute(&db, &AccessPlan::FullScan, &t, &path);
        assert_eq!(hits.len(), scan_hits.len());
    }

    #[test]
    fn nodeid_granularity_exact_skips_reevaluation() {
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product[RegPrice = 110]");
        let plan = plan(&path, col, true);
        match &plan {
            AccessPlan::Index {
                granularity, exact, ..
            } => {
                assert_eq!(*granularity, Granularity::NodeId);
                assert!(*exact);
            }
            AccessPlan::FullScan => panic!("expected index plan"),
        }
        let (hits, stats) = execute(&db, &plan, &t, &path);
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.docs_evaluated, 0, "no document re-evaluation");
        assert_eq!(stats.index_entries, 2, "scanned again under the S lock");
        assert!(hits[0].value.contains("P5"));
    }

    /// `prefer_nodeid` yields a NodeID list only where the list answers the
    /// query from its anchors; every plan that would have to evaluate a
    /// document is a DocID list.
    #[test]
    fn nodeid_lists_only_answer() {
        let (_db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let granularity = |qs: &str| match plan(&q(qs), col, true) {
            AccessPlan::Index { granularity, .. } => granularity,
            AccessPlan::FullScan => panic!("expected an index plan for {qs}"),
        };
        assert_eq!(
            granularity("/Catalog/Categories/Product[RegPrice > 100]"),
            Granularity::NodeId
        );
        for qs in [
            // The result lies below the anchor.
            "/Catalog/Categories/Product[RegPrice > 100]/ProductName",
            // A containment term only filters.
            "/Catalog/Categories/Product[Discount > 0.15]",
            // A predicate no index covers.
            "/Catalog/Categories/Product[RegPrice > 100 and ProductName = 'P7']",
            // Predicates on another step.
            "/Catalog/Categories[Product]/Product[RegPrice > 100]",
        ] {
            assert_eq!(granularity(qs), Granularity::DocId, "{qs}");
        }
    }

    #[test]
    fn index_plans_agree_with_scan() {
        let (db, t) = setup();
        // Regression: a NaN price used to get an index key sorting above
        // +inf, so exact NodeID plans for `RegPrice > x` returned it although
        // every comparison with NaN is false.
        db.insert_row(&t, &[ColValue::Xml(catalog_doc(20, f64::NAN, 0.1))])
            .unwrap();
        let col = t.xml_column("doc").unwrap();
        let queries = [
            "/Catalog/Categories/Product[RegPrice > 100]",
            "/Catalog/Categories/Product[RegPrice > 300]",
            "/Catalog/Categories/Product[RegPrice <= 110]",
            "/Catalog/Categories/Product[RegPrice = 130]/ProductName",
            "/Catalog/Categories/Product[Discount > 0.05 and RegPrice < 200]",
            "/Catalog/Categories/Product[RegPrice >= 350 or Discount = 0.3]",
            "/Catalog/Categories/Product[RegPrice > 100 and RegPrice < 200]",
            "/Catalog/Categories/Product[RegPrice >= 110][RegPrice <= 110]",
            "/Catalog/Categories/Product[RegPrice > 200 and RegPrice < 100]",
            "/Catalog/Categories/Product[RegPrice < 50 or RegPrice > 350][RegPrice < 30 or RegPrice > 370]",
            "/Catalog/Categories/Product[RegPrice > 100][RegPrice < 50 or Discount > 0.25]",
            "/Catalog/Categories/Product[RegPrice > 300 and RegPrice < 350 or RegPrice < 50]",
            "/Catalog/Categories/Product[RegPrice < 50 or Discount > 0.25 and RegPrice > 300]",
        ];
        for qs in queries {
            let path = q(qs);
            for prefer_nodeid in [false, true] {
                let p = plan(&path, col, prefer_nodeid);
                let (mut hits, _) = execute(&db, &p, &t, &path);
                let (mut scan_hits, _) = execute(&db, &AccessPlan::FullScan, &t, &path);
                let key = |h: &QueryHit| (h.doc, h.node.clone().map(|n| n.as_bytes().to_vec()));
                hits.sort_by_key(key);
                scan_hits.sort_by_key(key);
                assert_eq!(hits, scan_hits, "query {qs} nodeid={prefer_nodeid}");
            }
        }
    }

    #[test]
    fn unindexable_queries_fall_back_to_scan() {
        let (_db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        // No predicate at all.
        assert!(matches!(
            plan(&q("/Catalog/Categories/Product"), col, false),
            AccessPlan::FullScan
        ));
        // Predicate on an unindexed path.
        assert!(matches!(
            plan(
                &q("/Catalog/Categories/Product[ProductName = 'P3']"),
                col,
                false
            ),
            AccessPlan::FullScan
        ));
        // != cannot use an index.
        assert!(matches!(
            plan(
                &q("/Catalog/Categories/Product[RegPrice != 100]"),
                col,
                false
            ),
            AccessPlan::FullScan
        ));
    }

    #[test]
    fn key_range_intersection() {
        let k = |v: &str| encode_key(KeyType::Double, v).unwrap();
        let r = |op, v| KeyRange::from_cmp(op, k(v)).unwrap();
        let both = |a: KeyRange, b: KeyRange| {
            let ab = a.intersect(&b);
            assert_eq!(ab, b.intersect(&a), "intersection is symmetric");
            ab
        };
        // The tighter bound wins on each side.
        assert_eq!(
            both(r(CmpOp::Gt, "100"), r(CmpOp::Lt, "200")),
            Some(KeyRange {
                lo: Some((k("100"), false)),
                hi: Some((k("200"), false)),
            })
        );
        assert_eq!(
            both(r(CmpOp::Gt, "100"), r(CmpOp::Ge, "150")),
            Some(KeyRange {
                lo: Some((k("150"), true)),
                hi: None,
            })
        );
        assert_eq!(
            both(r(CmpOp::Lt, "100"), r(CmpOp::Le, "50")),
            Some(KeyRange {
                lo: None,
                hi: Some((k("50"), true)),
            })
        );
        // On a tie the exclusive bound wins.
        assert_eq!(
            both(r(CmpOp::Gt, "100"), r(CmpOp::Ge, "100")),
            Some(r(CmpOp::Gt, "100"))
        );
        assert_eq!(
            both(r(CmpOp::Le, "200"), r(CmpOp::Lt, "200")),
            Some(r(CmpOp::Lt, "200"))
        );
        assert_eq!(
            both(r(CmpOp::Ge, "100"), r(CmpOp::Le, "100")),
            Some(r(CmpOp::Eq, "100"))
        );
        assert_eq!(
            both(r(CmpOp::Eq, "100"), r(CmpOp::Le, "100")),
            Some(r(CmpOp::Eq, "100"))
        );
        // Empty intersections.
        assert_eq!(both(r(CmpOp::Eq, "100"), r(CmpOp::Lt, "100")), None);
        assert_eq!(both(r(CmpOp::Gt, "100"), r(CmpOp::Le, "100")), None);
        assert_eq!(both(r(CmpOp::Gt, "200"), r(CmpOp::Lt, "100")), None);
        assert_eq!(both(r(CmpOp::Eq, "100"), r(CmpOp::Eq, "200")), None);
    }

    #[test]
    fn ancestor_truncation() {
        let n = NodeId::from_bytes(&[0x02, 0x04, 0x03, 0x02, 0x06]).unwrap();
        assert_eq!(ancestor_at_depth(&n, 1).unwrap().as_bytes(), &[0x02][..]);
        assert_eq!(
            ancestor_at_depth(&n, 2).unwrap().as_bytes(),
            &[0x02, 0x04][..]
        );
        assert_eq!(
            ancestor_at_depth(&n, 3).unwrap().as_bytes(),
            &[0x02, 0x04, 0x03, 0x02][..]
        );
        assert!(ancestor_at_depth(&n, 5).is_none());
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let (db, t) = setup();
        // Enough documents that a full scan gives two lanes
        // MIN_DOCS_PER_LANE each.
        for i in 20..2 * MIN_DOCS_PER_LANE as u32 {
            let price = 10.0 + f64::from(i) * 20.0;
            let discount = f64::from(i % 4) * 0.1;
            db.insert_row(&t, &[ColValue::Xml(catalog_doc(i, price, discount))])
                .unwrap();
        }
        let col = t.xml_column("doc").unwrap();
        let exec = QueryExecutor::new(4);
        let queries = [
            "/Catalog/Categories/Product",
            "/Catalog/Categories/Product[RegPrice > 100]",
            "/Catalog/Categories/Product[Discount > 0.15]",
            "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.15]",
        ];
        let txn = db.begin().unwrap();
        for qs in queries {
            let path = q(qs);
            for prefer_nodeid in [false, true] {
                let p = plan(&path, col, prefer_nodeid);
                let tree = Arc::new(QueryTree::compile(&path).unwrap());
                let run = |exec| execute_tree(&p, &t, col, db.dict(), &tree, exec, &txn);
                let (serial, sstats) = run(None).unwrap();
                let (par, pstats) = run(Some(&exec)).unwrap();
                // Same hits in the same (document) order, same work
                // counters.
                assert_eq!(par, serial, "query {qs} nodeid={prefer_nodeid}");
                assert_eq!(pstats, sstats, "query {qs} nodeid={prefer_nodeid}");
            }
        }
        txn.commit().unwrap();
        assert!(exec.parallel_queries() > 0);
    }

    #[test]
    fn small_batches_evaluate_on_the_calling_thread() {
        let db = Database::create_in_memory().unwrap();
        let t = db
            .create_table("products", &[("doc", ColumnKind::Xml)])
            .unwrap();
        let col = t.xml_column("doc").unwrap();
        let path = q("/Catalog/Categories/Product/ProductName");
        let tree = Arc::new(QueryTree::compile(&path).unwrap());
        let exec = QueryExecutor::new(2);
        let scan = || {
            let txn = db.begin().unwrap();
            let (hits, _) = execute_tree(
                &AccessPlan::FullScan,
                &t,
                col,
                db.dict(),
                &tree,
                Some(&exec),
                &txn,
            )
            .unwrap();
            txn.commit().unwrap();
            hits.len()
        };
        let insert = |i: usize| {
            let xml = catalog_doc(i as u32, 10.0, 0.1);
            db.insert_row(&t, &[ColValue::Xml(xml)]).unwrap();
        };
        // One document short of MIN_DOCS_PER_LANE for each of 2 lanes.
        for i in 0..2 * MIN_DOCS_PER_LANE - 1 {
            insert(i);
        }
        assert_eq!(fan_out_lanes(Some(&exec), 2 * MIN_DOCS_PER_LANE - 1), 1);
        assert_eq!(scan(), 2 * MIN_DOCS_PER_LANE - 1);
        assert_eq!(exec.parallel_queries(), 0, "below the threshold: serial");
        insert(2 * MIN_DOCS_PER_LANE);
        assert_eq!(fan_out_lanes(Some(&exec), 2 * MIN_DOCS_PER_LANE), 2);
        assert_eq!(scan(), 2 * MIN_DOCS_PER_LANE);
        assert_eq!(exec.parallel_queries(), 1, "at the threshold: 2 lanes");
        assert_eq!(fan_out_lanes(None, 1000), 1);
    }

    #[test]
    fn parallel_evaluation_skips_deleted_docs() {
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let exec = QueryExecutor::new(4);
        let path = q("/Catalog/Categories/Product/ProductName");
        let tree = Arc::new(QueryTree::compile(&path).unwrap());
        let mut docs = all_docids(&t).unwrap();
        let victim = docs[docs.len() / 2];
        assert!(db.delete_row(&t, victim).unwrap());
        // The stale candidate list still names the deleted doc (a locked
        // read hits this when a delete commits between gather and lock).
        let evaluate = |exec, lanes, docs, stats: &mut AccessStats| {
            let txn = db.begin().unwrap();
            let hits = evaluate_docs(exec, lanes, &txn, &t, col, db.dict(), &tree, docs, stats);
            txn.commit().unwrap();
            hits.unwrap()
        };
        let mut stats = AccessStats::default();
        let hits = evaluate(Some(&exec), 4, docs.clone(), &mut stats);
        assert_eq!(hits.len(), 19);
        assert!(hits.iter().all(|h| h.doc != victim));
        assert_eq!(stats.docs_evaluated, 19);
        // Serial over the survivors agrees.
        docs.retain(|&d| d != victim);
        let mut serial_stats = AccessStats::default();
        let serial = evaluate(None, 1, docs, &mut serial_stats);
        assert_eq!(hits, serial);
        assert_eq!(stats.docs_evaluated, serial_stats.docs_evaluated);
    }

    #[test]
    fn lane_scanner_resets_after_missing_and_failed_documents() {
        // Small records: a long ProductName spills its text into a record of
        // its own, so a document can fail mid-traversal.
        let db = Database::create_in_memory_with(crate::db::DbConfig {
            target_record_size: 128,
            ..Default::default()
        })
        .unwrap();
        let t = db
            .create_table("products", &[("doc", ColumnKind::Xml)])
            .unwrap();
        let doc = |name: &str, pad: usize, discount: f64| {
            format!(
                "<Catalog><Categories><Product><Discount>{discount}</Discount>\
                 <ProductName>{name}{}</ProductName></Product></Categories></Catalog>",
                "n".repeat(pad)
            )
        };
        let insert = |text: String| db.insert_row(&t, &[ColValue::Xml(text)]).unwrap();
        let first = insert(doc("first", 10, 0.3));
        let deleted = insert(doc("deleted", 10, 0.3));
        let failing = insert(doc("failing", 300, 0.3));
        let last = insert(doc("last", 10, 0.3));
        assert!(db.delete_row(&t, deleted).unwrap());
        // Break the record holding the failing document's ProductName text
        // behind the NodeID index's back: traversal fails with Discount
        // already in Product's operands, ProductName's instance open and its
        // string value accumulating.
        let col = t.xml_column("doc").unwrap();
        let xml = col.xml_table();
        let root_rid = xml.locate(failing, &[]).unwrap().unwrap().rid;
        let name_text = [0x02, 0x02, 0x02, 0x04, 0x02];
        let broken_rid = xml.locate(failing, &name_text).unwrap().unwrap().rid;
        assert_ne!(broken_rid, root_rid, "the failing document spans records");
        xml.heap().delete(broken_rid).unwrap();

        let path = q("/Catalog/Categories/Product[Discount > 0.15]/ProductName");
        let tree = QueryTree::compile(&path).unwrap();
        let alone = |d: DocId| {
            let mut hits = Vec::new();
            DocScanner::new(col, &tree, db.dict(), false)
                .evaluate(d, &mut AccessStats::default(), &mut hits)
                .unwrap();
            hits
        };
        let (first_hits, last_hits) = (alone(first), alone(last));
        assert_eq!(first_hits.len(), 1);
        assert_eq!(last_hits.len(), 1);
        assert!(last_hits[0].node.is_some());

        let mut lane = DocScanner::new(col, &tree, db.dict(), false);
        let mut stats = AccessStats::default();
        let mut hits = Vec::new();
        lane.evaluate(first, &mut stats, &mut hits).unwrap();
        let missing = lane.evaluate(deleted, &mut stats, &mut hits);
        assert!(matches!(missing, Err(EngineError::NotFound { .. })));
        let broken = lane.evaluate(failing, &mut stats, &mut hits);
        assert!(broken.is_err());
        assert!(!matches!(broken, Err(EngineError::NotFound { .. })));
        assert_eq!(hits, first_hits, "failed documents append nothing");
        lane.evaluate(last, &mut stats, &mut hits).unwrap();
        assert_eq!(
            hits[1..],
            last_hits[..],
            "exactly the last document's own hits"
        );
        assert_eq!(stats.docs_evaluated, 2);

        // A locked read skips the deleted candidate and returns the same
        // hits as per-document evaluation.
        let txn = db.begin().unwrap();
        let mut stats = AccessStats::default();
        let listed = evaluate_docs(
            None,
            1,
            &txn,
            &t,
            col,
            db.dict(),
            &Arc::new(tree),
            vec![first, deleted, last],
            &mut stats,
        )
        .unwrap();
        txn.commit().unwrap();
        assert_eq!(listed, [first_hits, last_hits].concat());
        assert_eq!(stats.docs_evaluated, 2);
    }
}

#[cfg(test)]
mod exactness_tests {
    use super::*;
    use crate::db::{ColValue, ColumnKind, Database};
    use rx_xml::value::KeyType;
    use rx_xpath::XPathParser;

    /// Table 2's exactness discussion: "If all the indexes match exactly with
    /// the predicates, the result DocID/NodeID list is exact. If one of them
    /// is exact match, while the others are containment, NodeID level ANDing
    /// will result in an exact list. Otherwise, the result list will not be
    /// exact but filtering."
    #[test]
    fn mixed_exact_and_containment_nodeid_anding_is_exact() {
        let db = Database::create_in_memory().unwrap();
        let t = db.create_table("c", &[("doc", ColumnKind::Xml)]).unwrap();
        // Exact index for RegPrice, containment (//) index for Discount.
        db.create_value_index(
            "c",
            "p",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        db.create_value_index("c", "d", "doc", "//Discount", KeyType::Double)
            .unwrap();
        db.insert_row(
            &t,
            &[ColValue::Xml(
                "<Catalog><Product><RegPrice>100</RegPrice>\
                 <Discount>0.2</Discount></Product></Catalog>"
                    .into(),
            )],
        )
        .unwrap();
        let col = t.xml_column("doc").unwrap();
        let path = XPathParser::new()
            .parse("/Catalog/Product[RegPrice > 50 and Discount > 0.1]")
            .unwrap();
        // NodeID granularity: exact despite the containment term.
        match plan(&path, col, true) {
            AccessPlan::Index {
                granularity, exact, ..
            } => {
                assert_eq!(granularity, Granularity::NodeId);
                assert!(exact, "one exact term keeps NodeID ANDing exact");
            }
            AccessPlan::FullScan => panic!("expected an index plan"),
        }
        // DocID granularity with two terms: not exact (re-evaluation needed).
        match plan(&path, col, false) {
            AccessPlan::Index {
                granularity, exact, ..
            } => {
                assert_eq!(granularity, Granularity::DocId);
                assert!(!exact);
            }
            AccessPlan::FullScan => panic!("expected an index plan"),
        }
        // Two containment-only terms at NodeID level: filtering, so the
        // NodeID list cannot answer and the plan is a DocID list.
        let path = XPathParser::new()
            .parse("/Catalog/Product[Discount > 0.1 and Discount < 0.5]")
            .unwrap();
        match plan(&path, col, true) {
            AccessPlan::Index {
                granularity, exact, ..
            } => {
                assert_eq!(granularity, Granularity::DocId);
                assert!(!exact, "containment-only ANDing is a filter");
            }
            AccessPlan::FullScan => panic!("expected an index plan"),
        }
    }
}
