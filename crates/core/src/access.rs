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

use crate::db::{BaseTable, XmlColumn};
use crate::error::{EngineError, Result};
use crate::executor::{CachedPlan, PlanCache, PlanKey, QueryExecutor};
use crate::traverse::{IdEventSink, Traverser};
use crate::validx::{IndexEntry, ValueIndex};
use crate::xmltable::DocId;
use rx_xml::event::Event;
use rx_xml::name::NameDict;
use rx_xml::nodeid::NodeId;
use rx_xml::value::{encode_key, KeyType};
use rx_xpath::ast::{Axis, CmpOp, Expr, Operand, Path, Step};
use rx_xpath::containment::{classify, IndexMatch};
use rx_xpath::quickxscan::QuickXScan;
use rx_xpath::QueryTree;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
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
    /// DocID lists (small documents).
    DocId,
    /// NodeID lists at the anchor node (large documents).
    NodeId,
}

/// A selected access plan.
pub enum AccessPlan {
    /// Evaluate by scanning every document with QuickXScan (the relational-
    /// scan analogue).
    FullScan,
    /// Index access: scan term ranges, combine candidate lists, verify when
    /// the combined list is not exact.
    Index {
        /// The terms.
        terms: Vec<IndexTerm>,
        /// AND vs OR combination.
        combine: Combine,
        /// Candidate granularity.
        granularity: Granularity,
        /// Depth of the anchor step (NodeID granularity only): candidates
        /// map to their ancestor at this depth.
        anchor_depth: usize,
        /// Is the combined candidate list exact (no re-evaluation needed to
        /// decide the indexed predicates)?
        exact: bool,
        /// Whether the full query must still run on candidates (non-indexed
        /// predicates, or result ≠ anchor, or inexact list).
        verify: bool,
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
                verify,
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
                s.push_str(if *verify {
                    ", re-evaluation)"
                } else {
                    ", no re-evaluation)"
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
    /// Index entries scanned.
    pub index_entries: u64,
    /// Candidate documents / nodes after combining.
    pub candidates: u64,
    /// Documents fully (re-)evaluated.
    pub docs_evaluated: u64,
    /// Heap records fetched during evaluation.
    pub records_fetched: u64,
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
        let Some(key) = encode_key(idx.def.key_type, literal) else {
            continue; // literal does not cast to the index key type
        };
        // String indexes can serve ordering comparisons only lexicographically,
        // which differs from numeric XPath semantics — restrict them to Eq.
        if idx.def.key_type == KeyType::String && op != CmpOp::Eq {
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
/// `prefer_nodeid` selects NodeID-granularity candidate lists (large
/// documents); it requires the anchor prefix to use only child axes so the
/// anchor depth is fixed.
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
    let anchor_child_only = path.steps[..=anchor].iter().all(|s| s.axis == Axis::Child);
    let granularity = if prefer_nodeid && anchor_child_only {
        Granularity::NodeId
    } else {
        Granularity::DocId
    };
    let exact = match granularity {
        Granularity::NodeId => {
            all_exact
                || (combine == Combine::And
                    && terms.iter().any(|t| t.match_kind == IndexMatch::Exact))
        }
        Granularity::DocId => all_exact && terms.len() == 1,
    };
    // Does the query ask for exactly the anchor nodes?
    let result_is_anchor = anchor == path.steps.len() - 1;
    let verify = !exact || !covered || !result_is_anchor || granularity == Granularity::DocId;
    AccessPlan::Index {
        terms,
        combine,
        granularity,
        anchor_depth: anchor + 1,
        exact,
        verify,
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Drive QuickXScan over one stored document.
struct ScanSink<'a, 'q, 'd> {
    scan: &'a mut QuickXScan<'q, 'd>,
}

impl IdEventSink for ScanSink<'_, '_, '_> {
    fn id_event(&mut self, id: &NodeId, ev: Event<'_>) -> Result<()> {
        use rx_xml::event::EventSink;
        self.scan.set_current_node(id.clone());
        self.scan.event(ev)?;
        Ok(())
    }
}

/// Evaluate `tree` over document `doc` of `column`, returning hits.
pub fn evaluate_document(
    column: &XmlColumn,
    dict: &NameDict,
    tree: &QueryTree,
    doc: DocId,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    let mut scan = QuickXScan::new(tree, dict);
    let mut t = Traverser::new(column.xml_table(), doc);
    t.run(&mut ScanSink { scan: &mut scan })?;
    stats.docs_evaluated += 1;
    stats.records_fetched += t.stats.records_fetched;
    let items = scan.finish()?;
    Ok(items
        .into_iter()
        .map(|i| QueryHit {
            doc,
            node: i.node,
            value: i.value,
        })
        .collect())
}

/// Evaluate `tree` over each doc of `docs` in order. `skip_missing` applies
/// the locked path's semantics: a candidate gathered before its S lock was
/// granted may have been deleted by a transaction that committed in between
/// (the lock only guarantees we never see a *partial* document, not that the
/// document still exists), so `NotFound` skips the doc instead of failing.
fn evaluate_doc_list(
    column: &XmlColumn,
    dict: &NameDict,
    tree: &QueryTree,
    docs: &[DocId],
    skip_missing: bool,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    let mut hits = Vec::new();
    for &doc in docs {
        match evaluate_document(column, dict, tree, doc, stats) {
            Ok(h) => hits.extend(h),
            Err(EngineError::NotFound { .. }) if skip_missing => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(hits)
}

/// Fan document evaluation across the executor's lanes. Contiguous
/// partitions of the (document-ordered) candidate list keep per-partition
/// results in document order, so concatenating them in partition order
/// reproduces exactly the serial output; per-partition stats are summed.
/// The first error in partition (= document) order propagates, matching the
/// serial loop. Falls back to the serial loop when no executor is supplied
/// or the batch is too small to split.
fn evaluate_docs(
    exec: Option<&QueryExecutor>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    docs: Vec<DocId>,
    skip_missing: bool,
    stats: &mut AccessStats,
) -> Result<Vec<QueryHit>> {
    let lanes = exec.map_or(1, QueryExecutor::workers);
    if lanes <= 1 || docs.len() <= 1 {
        return evaluate_doc_list(column, dict, tree, &docs, skip_missing, stats);
    }
    let exec = exec.expect("lanes > 1 implies an executor");
    let chunk = docs.len().div_ceil(lanes.min(docs.len()));
    type PartResult = Result<(Vec<QueryHit>, AccessStats)>;
    let mut tasks: Vec<Box<dyn FnOnce() -> PartResult + Send>> = Vec::new();
    // One shared candidate list; each lane gets a (start, len) window into
    // it instead of its own copy of the slice.
    let docs: Arc<[DocId]> = docs.into();
    for start in (0..docs.len()).step_by(chunk) {
        let len = chunk.min(docs.len() - start);
        let column = Arc::clone(column);
        let dict = Arc::clone(dict);
        let tree = Arc::clone(tree);
        let docs = Arc::clone(&docs);
        tasks.push(Box::new(move || {
            let mut stats = AccessStats::default();
            let part = &docs[start..start + len];
            let hits = evaluate_doc_list(&column, &dict, &tree, part, skip_missing, &mut stats)?;
            Ok((hits, stats))
        }));
    }
    let mut hits = Vec::new();
    for r in exec.run_batch(tasks) {
        let (h, s) = r?;
        hits.extend(h);
        stats.docs_evaluated += s.docs_evaluated;
        stats.records_fetched += s.records_fetched;
    }
    Ok(hits)
}

/// True when hit node `n` equals, descends from, or is an ancestor of one of
/// the `sorted` candidate anchors (all at exactly `anchor_depth` levels).
/// Ancestry on Dewey IDs is a byte-prefix test, so both directions reduce to
/// binary searches: a hit at or below the anchor depth has one possible
/// anchor (its prefix truncated to `anchor_depth`), and a shallower hit's
/// descendants form a contiguous byte-order run starting at its insertion
/// point.
fn anchor_listed(sorted: &[NodeId], n: &NodeId, anchor_depth: usize) -> bool {
    match ancestor_at_depth(n, anchor_depth) {
        Some(a) => sorted
            .binary_search_by(|c| c.as_bytes().cmp(a.as_bytes()))
            .is_ok(),
        None => {
            let i = sorted.partition_point(|c| c.as_bytes() < n.as_bytes());
            sorted.get(i).is_some_and(|c| n.is_ancestor_or_self(c))
        }
    }
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

/// Execute a plan. `table` supplies the document population for scans.
/// Compiles the tree once; use [`execute_tree`] to reuse a compiled tree
/// (e.g. from the plan cache) or to run in parallel.
pub fn execute(
    plan: &AccessPlan,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    path: &Path,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    let tree = Arc::new(QueryTree::compile(path)?);
    execute_tree(plan, table, column, dict, &tree, None)
}

/// Execute a plan with an already-compiled tree, optionally fanning
/// candidate-document evaluation across `exec`'s worker lanes.
pub fn execute_tree(
    plan: &AccessPlan,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    tree: &Arc<QueryTree>,
    exec: Option<&QueryExecutor>,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    let mut stats = AccessStats::default();
    match plan {
        AccessPlan::FullScan => {
            let docs = all_docids(table)?;
            let hits = evaluate_docs(exec, column, dict, tree, docs, false, &mut stats)?;
            Ok((hits, stats))
        }
        AccessPlan::Index {
            terms,
            combine,
            granularity,
            anchor_depth,
            verify,
            ..
        } => {
            let term_entries = scan_terms(terms, *combine, &mut stats)?;
            match granularity {
                Granularity::DocId => {
                    let sets: Vec<BTreeSet<DocId>> = term_entries
                        .iter()
                        .map(|es| es.iter().map(|e| e.doc).collect())
                        .collect();
                    let docs: Vec<DocId> = combine_sets(sets, *combine).into_iter().collect();
                    stats.candidates = docs.len() as u64;
                    let hits = evaluate_docs(exec, column, dict, tree, docs, false, &mut stats)?;
                    Ok((hits, stats))
                }
                Granularity::NodeId => {
                    // Map each entry's node to its ancestor at the anchor
                    // depth (a Dewey prefix truncation), then combine.
                    let sets: Vec<BTreeSet<(DocId, NodeId)>> = term_entries
                        .iter()
                        .map(|es| {
                            es.iter()
                                .filter_map(|e| {
                                    ancestor_at_depth(&e.node, *anchor_depth).map(|a| (e.doc, a))
                                })
                                .collect()
                        })
                        .collect();
                    let nodes = combine_sets(sets, *combine);
                    stats.candidates = nodes.len() as u64;
                    if !verify {
                        // Exact list, result = anchor nodes: emit directly.
                        // `nodes` iterates in (doc, node) order, so one
                        // traverser per document serves all of its anchors —
                        // sharing the document-cache snapshot and the
                        // ceiling-probe memo, consecutive anchors that live
                        // in the same record cost one fetch, not one each.
                        let xml = column.xml_table();
                        let mut hits = Vec::with_capacity(nodes.len());
                        let mut cur: Option<(DocId, crate::traverse::Traverser<'_>)> = None;
                        for (doc, node) in nodes {
                            if cur.as_ref().map(|(d, _)| *d) != Some(doc) {
                                if let Some((_, done)) = cur.take() {
                                    stats.records_fetched += done.stats.records_fetched;
                                }
                                cur = Some((doc, crate::traverse::Traverser::new(xml, doc)));
                            }
                            let (_, t) = cur.as_mut().expect("traverser bound above");
                            let value = t.string_value(&node)?;
                            hits.push(QueryHit {
                                doc,
                                node: Some(node),
                                value,
                            });
                        }
                        if let Some((_, done)) = cur {
                            stats.records_fetched += done.stats.records_fetched;
                        }
                        return Ok((hits, stats));
                    }
                    // Verify per candidate *document* but only documents that
                    // have candidates; node-level pre-filtering already cut
                    // the verification set. Group anchors per document —
                    // `nodes` iterates in (doc, node) order, so each doc's
                    // anchor list arrives already byte-sorted and the filter
                    // below is a binary search instead of a rescan of the
                    // full candidate list per hit.
                    let mut anchors: HashMap<DocId, Vec<NodeId>> = HashMap::new();
                    let mut docs: Vec<DocId> = Vec::new();
                    for (d, n) in &nodes {
                        if docs.last() != Some(d) {
                            docs.push(*d);
                        }
                        anchors.entry(*d).or_default().push(n.clone());
                    }
                    let all = evaluate_docs(exec, column, dict, tree, docs, false, &mut stats)?;
                    // Keep only hits whose anchor candidate was listed.
                    let hits = all
                        .into_iter()
                        .filter(|h| match &h.node {
                            Some(n) => anchors
                                .get(&h.doc)
                                .is_some_and(|set| anchor_listed(set, n, *anchor_depth)),
                            None => true,
                        })
                        .collect();
                    Ok((hits, stats))
                }
            }
        }
    }
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
        Ok(Arc::new(CachedPlan {
            tree: Arc::new(QueryTree::compile(path)?),
            plan: Arc::new(plan(path, column, prefer_nodeid)),
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

/// Plan + execute under the §5.1 DocID-locking protocol: IS on the table,
/// then an S lock on every candidate document *before* it is evaluated —
/// "care must be taken also to prevent reading a partially inserted document
/// by using a lock": a value-index probe can surface entries of an
/// uncommitted insert, and the S lock makes the reader wait for (or abort
/// against) the inserting transaction instead of reading half a document.
pub fn run_query_locked(
    txn: &rx_storage::Txn,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    path: &Path,
    prefer_nodeid: bool,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    run_query_locked_with(None, None, txn, table, column, dict, path, prefer_nodeid)
}

/// [`run_query_locked`] with a worker pool and plan cache. Every candidate's
/// S lock is acquired, in document order, *before* evaluation fans out, so
/// the locking protocol is byte-for-byte the serial one; workers only read
/// documents the transaction already holds locks on. A lock timeout aborts
/// the whole query before any fan-out happens.
#[allow(clippy::too_many_arguments)]
pub fn run_query_locked_with(
    exec: Option<&QueryExecutor>,
    cache: Option<&PlanCache>,
    txn: &rx_storage::Txn,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    path: &Path,
    prefer_nodeid: bool,
) -> Result<(Vec<QueryHit>, AccessStats)> {
    txn.lock(
        &rx_storage::LockName::Table(table.def.id),
        rx_storage::LockMode::IS,
    )?;
    let prepared = prepare(cache, table, column, path, prefer_nodeid)?;
    // Gather candidate documents first (index scans read only index pages),
    // then lock all of them, then evaluate.
    let mut stats = AccessStats::default();
    let docs: Vec<DocId> = match prepared.plan.as_ref() {
        AccessPlan::FullScan => all_docids(table)?,
        AccessPlan::Index { terms, combine, .. } => {
            let sets: Vec<BTreeSet<DocId>> = scan_terms(terms, *combine, &mut stats)?
                .iter()
                .map(|es| es.iter().map(|e| e.doc).collect())
                .collect();
            combine_sets(sets, *combine).into_iter().collect()
        }
    };
    stats.candidates = docs.len() as u64;
    for &doc in &docs {
        txn.lock(
            &rx_storage::LockName::Document {
                table: table.def.id,
                doc,
            },
            rx_storage::LockMode::S,
        )?;
    }
    let hits = evaluate_docs(exec, column, dict, &prepared.tree, docs, true, &mut stats)?;
    Ok((hits, stats))
}

/// Convenience: plan + execute in one call (serial, uncached).
pub fn run_query(
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    path: &Path,
    prefer_nodeid: bool,
) -> Result<(Vec<QueryHit>, AccessStats, String)> {
    run_query_with(None, None, table, column, dict, path, prefer_nodeid)
}

/// [`run_query`] with a worker pool and plan cache.
pub fn run_query_with(
    exec: Option<&QueryExecutor>,
    cache: Option<&PlanCache>,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    dict: &Arc<NameDict>,
    path: &Path,
    prefer_nodeid: bool,
) -> Result<(Vec<QueryHit>, AccessStats, String)> {
    let prepared = prepare(cache, table, column, path, prefer_nodeid)?;
    let explain = prepared.plan.explain();
    let (hits, stats) = execute_tree(&prepared.plan, table, column, dict, &prepared.tree, exec)?;
    Ok((hits, stats, explain))
}

/// All DocIDs of a table, from the DocID index.
pub fn all_docids(table: &Arc<BaseTable>) -> Result<Vec<DocId>> {
    let mut out = Vec::new();
    table.docid_index().scan_all(|k, _| {
        if let Ok(b) = <[u8; 8]>::try_from(k) {
            out.push(u64::from_be_bytes(b));
        }
        true
    })?;
    Ok(out)
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
        let (hits, stats) = execute(&plan, &t, col, db.dict(), &path).unwrap();
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
        let (hits, _) = execute(&plan, &t, col, db.dict(), &path).unwrap();
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
        let (hits, stats) = execute(&plan, &t, col, db.dict(), &path).unwrap();
        let scan_hits = {
            let (h, _) = execute(&AccessPlan::FullScan, &t, col, db.dict(), &path).unwrap();
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
        let (hits, _) = execute(&plan, &t, col, db.dict(), &path).unwrap();
        let (scan_hits, _) = execute(&AccessPlan::FullScan, &t, col, db.dict(), &path).unwrap();
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
                granularity,
                verify,
                exact,
                ..
            } => {
                assert_eq!(*granularity, Granularity::NodeId);
                assert!(*exact);
                assert!(!*verify, "exact NodeID list needs no re-evaluation");
            }
            AccessPlan::FullScan => panic!("expected index plan"),
        }
        let (hits, stats) = execute(&plan, &t, col, db.dict(), &path).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.docs_evaluated, 0, "no document re-evaluation");
        assert!(hits[0].value.contains("P5"));
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
                let (mut hits, _) = execute(&p, &t, col, db.dict(), &path).unwrap();
                let (mut scan_hits, _) =
                    execute(&AccessPlan::FullScan, &t, col, db.dict(), &path).unwrap();
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
        let col = t.xml_column("doc").unwrap();
        let exec = QueryExecutor::new(4);
        let queries = [
            "/Catalog/Categories/Product",
            "/Catalog/Categories/Product[RegPrice > 100]",
            "/Catalog/Categories/Product[Discount > 0.15]",
            "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.15]",
        ];
        for qs in queries {
            let path = q(qs);
            for prefer_nodeid in [false, true] {
                let p = plan(&path, col, prefer_nodeid);
                let tree = Arc::new(QueryTree::compile(&path).unwrap());
                let (serial, sstats) = execute_tree(&p, &t, col, db.dict(), &tree, None).unwrap();
                let (par, pstats) =
                    execute_tree(&p, &t, col, db.dict(), &tree, Some(&exec)).unwrap();
                // Same hits in the same (document) order, same work counters.
                assert_eq!(par, serial, "query {qs} nodeid={prefer_nodeid}");
                assert_eq!(pstats, sstats, "query {qs} nodeid={prefer_nodeid}");
            }
        }
        assert!(exec.parallel_queries() > 0);
    }

    #[test]
    fn parallel_evaluation_skips_deleted_docs_only_when_asked() {
        let (db, t) = setup();
        let col = t.xml_column("doc").unwrap();
        let exec = QueryExecutor::new(4);
        let path = q("/Catalog/Categories/Product/ProductName");
        let tree = Arc::new(QueryTree::compile(&path).unwrap());
        let mut docs = all_docids(&t).unwrap();
        let victim = docs[docs.len() / 2];
        assert!(db.delete_row(&t, victim).unwrap());
        // The stale candidate list still names the deleted doc (the locked
        // path hits this when a delete commits between gather and lock).
        let err = evaluate_docs(
            Some(&exec),
            col,
            db.dict(),
            &tree,
            docs.clone(),
            false,
            &mut AccessStats::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::NotFound { .. }));
        let mut stats = AccessStats::default();
        let hits = evaluate_docs(
            Some(&exec),
            col,
            db.dict(),
            &tree,
            docs.clone(),
            true,
            &mut stats,
        )
        .unwrap();
        assert_eq!(hits.len(), 19);
        assert!(hits.iter().all(|h| h.doc != victim));
        assert_eq!(stats.docs_evaluated, 19);
        // Serial agrees.
        docs.retain(|&d| d != victim);
        let mut serial_stats = AccessStats::default();
        let serial =
            evaluate_docs(None, col, db.dict(), &tree, docs, false, &mut serial_stats).unwrap();
        assert_eq!(hits, serial);
        assert_eq!(stats.docs_evaluated, serial_stats.docs_evaluated);
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
            AccessPlan::Index { exact, verify, .. } => {
                assert!(!exact);
                assert!(verify);
            }
            AccessPlan::FullScan => panic!("expected an index plan"),
        }
        // Two containment-only terms at NodeID level: filtering.
        let path = XPathParser::new()
            .parse("/Catalog/Product[Discount > 0.1 and Discount < 0.5]")
            .unwrap();
        match plan(&path, col, true) {
            AccessPlan::Index { exact, .. } => {
                assert!(!exact, "containment-only ANDing is a filter");
            }
            AccessPlan::FullScan => panic!("expected an index plan"),
        }
    }
}
