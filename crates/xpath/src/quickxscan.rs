//! QuickXScan — the optimal streaming XPath evaluation algorithm (§4.2).
//!
//! QuickXScan evaluates a compiled [`QueryTree`] in **one pass** over a
//! virtual-SAX event stream, with the characteristics the paper demands of a
//! base algorithm: "it evaluates an XPath expression by one pass scan of a
//! document without help from extra indexes, and also has similar performance
//! characteristics [to a relational scan]".
//!
//! The implementation follows the paper exactly:
//!
//! * it is an **attribute-grammar evaluation**: inherited attributes (does a
//!   document node match a query node?) are decided top-down, synthesized
//!   attributes (value sequences, predicate booleans) bottom-up;
//! * a **(horizontal) stack per query node** tracks matching instances; only
//!   the **stack top** is consulted to match a new node, which is what bounds
//!   live state at O(|Q|·r) instead of the exponential active-state sets of
//!   naive streaming automata (Fig. 7);
//! * the **two transitivity properties** are exploited through *upward links*
//!   and the §4.2 propagation rules of **Table 1**: on pop, an instance
//!   propagates its sequence-valued attributes *upward* when it has an upward
//!   link, *sideways* (to the nested instance below it in the same stack)
//!   when it shares its previous-step matching — never both, so sequences
//!   stay duplicate-free;
//! * candidate result sequences are held at each main-path instance and
//!   filtered by that instance's predicates when it pops ("candidate result
//!   sequences, which will go through filtering by predicates associated in
//!   the upper query nodes").
//!
//! The struct implements [`EventSink`], so the same evaluator runs over the
//! parser's token stream, packed persistent records, or constructed data —
//! task 3 of the §4.4 virtual-SAX runtime.
//!
//! One scanner evaluates any number of documents in turn: feed a document's
//! events, call [`QuickXScan::finish_into`] (which also readies the scanner
//! for the next document), or [`QuickXScan::reset`] to abandon a document
//! half way. Each query node's matching instances live in slots that are
//! reused where they sit: a push fills the first free slot, a pop empties
//! the top one in place, and no instance is ever moved. With the operand
//! sequences and string buffers recycled across documents, and the
//! element-name memo shared by all query nodes and kept for the scanner's
//! lifetime, a warm scanner allocates only for the values and node IDs of
//! its results.

use crate::ast::{CmpOp, NodeTest};
use crate::error::{Result as XResult, XPathError};
use crate::query_tree::{PExpr, POp, QAxis, QueryTree, Route};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::{NameDict, QNameId};
use rx_xml::nodeid::NodeId;

/// One item of a result or operand sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultItem {
    /// The node's string value.
    pub value: String,
    /// The node's ID, when the event source supplies node IDs (persistent
    /// data does; plain parsed streams do not).
    pub node: Option<NodeId>,
    /// Match sequence number: assigned when the node is first matched, so it
    /// follows document order of node starts. Result sequences are sorted by
    /// it before they are returned (sideways propagation can deliver values
    /// out of start order).
    pub order: u64,
}

impl ResultItem {
    /// Convenience constructor for tests and callers that only care about
    /// the value.
    pub fn of(value: impl Into<String>) -> Self {
        ResultItem {
            value: value.into(),
            node: None,
            order: 0,
        }
    }
}

/// Instrumentation counters backing the paper's complexity claims.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Matching instances created in total.
    pub matchings: u64,
    /// Peak simultaneous matching instances across all stacks — the paper's
    /// O(|Q|·r) bound.
    pub peak_instances: usize,
    /// Sequence-value propagations performed (upward + sideways).
    pub propagations: u64,
    /// Events processed.
    pub events: u64,
}

/// A value in flight. Main-path items remember their node's ID as a span of
/// the scanner's per-document ID arena; a [`NodeId`] is only built for the
/// items that survive into the result.
struct Item {
    value: String,
    id: Option<(usize, usize)>,
    order: u64,
}

struct Instance {
    /// Unique id, used for the sharing test on upward links.
    id: u64,
    /// Document depth of the matched element.
    depth: u32,
    /// Id of the previous-step instance that licensed this match.
    parent_inst: u64,
    /// Upward link: `(query node, stack position)` of the licensing
    /// previous-step instance — absent when this instance *shares* that
    /// matching with the instance below it (then it propagates sideways).
    upward: Option<(usize, usize)>,
    /// Values held for upward routing whose matching path runs through this
    /// instance's binding — filtered by this node's predicates at pop. For a
    /// `produces_value` node, slot 0 is reserved for the node's own value.
    held: Vec<Item>,
    /// Values received *sideways* from a nested instance: they already passed
    /// the predicates of their own binding and only transit through this
    /// instance on the shared previous-step matching — never re-filtered.
    transit: Vec<Item>,
    /// String-value accumulator (only filled for accumulating nodes).
    text: String,
    /// Operand sequences for this node's own predicates.
    operands: Vec<Vec<Item>>,
}

impl Instance {
    fn new(operand_slots: usize) -> Instance {
        Instance {
            id: 0,
            depth: 0,
            parent_inst: 0,
            upward: None,
            held: Vec::new(),
            transit: Vec::new(),
            text: String::new(),
            operands: (0..operand_slots).map(|_| Vec::new()).collect(),
        }
    }

    /// Empty every buffer, keeping its capacity, and hand the value strings
    /// to `spare_text`: the slot is ready for the next push.
    fn clear(&mut self, spare_text: &mut Vec<String>) {
        let slots = self.operands.iter_mut();
        for list in slots.chain([&mut self.held, &mut self.transit]) {
            for item in list.drain(..) {
                if spare_text.len() < SPARE_TEXT_MAX {
                    let mut s = item.value;
                    s.clear();
                    spare_text.push(s);
                }
            }
        }
        self.text.clear();
    }
}

/// One query node's matching instances: the live stack is `slots[..len]`,
/// and the slots above it are emptied instances kept for the next pushes.
#[derive(Default)]
struct Stack {
    slots: Vec<Instance>,
    len: usize,
}

impl Stack {
    fn live(&self) -> &[Instance] {
        &self.slots[..self.len]
    }

    fn top(&self) -> Option<&Instance> {
        self.live().last()
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Spent string buffers kept for reuse, at most this many.
const SPARE_TEXT_MAX: usize = 256;

/// The streaming evaluator.
pub struct QuickXScan<'q, 'd> {
    tree: &'q QueryTree,
    dict: &'d NameDict,
    stacks: Vec<Stack>,
    /// Emptied value strings, handed to the next accumulator or leaf match.
    spare_text: Vec<String>,
    /// Query nodes that pushed an instance, in push order, for all open
    /// elements; `opened[k]` is where the run of the `k`-th open element
    /// starts.
    matched: Vec<usize>,
    opened: Vec<usize>,
    doc_depth: u32,
    /// Open instances accumulating string values: (qnode, stack position).
    accumulators: Vec<(usize, usize)>,
    /// Name-test memo shared by all query nodes: the names seen so far,
    /// sorted, each with the offset of its row in `memo_rows`, which holds
    /// one test outcome per query node. A hit is a binary search over the
    /// distinct names — no hashing and no dictionary lock.
    memo_keys: Vec<(QNameId, usize)>,
    memo_rows: Vec<bool>,
    /// Query nodes that can match an element start / attribute / text /
    /// comment event, in index order.
    element_nodes: Vec<usize>,
    attribute_nodes: Vec<usize>,
    text_nodes: Vec<usize>,
    comment_nodes: Vec<usize>,
    /// Parent of every descendant-axis query node (see
    /// [`QuickXScan::wants_content`]).
    descendant_parents: Vec<usize>,
    /// Per-qnode, per-operand: does the operand chain root use the
    /// descendant axis (⇒ operand sequences propagate sideways, Table 1)?
    operand_sideways: Vec<Vec<bool>>,
    /// Empty operand sequences, as many as the widest node needs: what leaf
    /// predicates are evaluated against.
    no_operands: Vec<Vec<Item>>,
    next_inst: u64,
    next_order: u64,
    live: usize,
    /// ID bytes of the next event's node, valid while `has_current`.
    current: Vec<u8>,
    has_current: bool,
    /// Per-document arena of the node IDs of main-path items.
    ids: Vec<u8>,
    /// Counters for the complexity experiments (cumulative over documents).
    pub stats: ScanStats,
}

impl<'q, 'd> QuickXScan<'q, 'd> {
    /// Prepare an evaluator, ready for its first document.
    pub fn new(tree: &'q QueryTree, dict: &'d NameDict) -> Self {
        let n = tree.nodes.len();
        let mut operand_sideways = vec![Vec::new(); n];
        for (q, node) in tree.nodes.iter().enumerate() {
            let mut flags = vec![false; node.operand_slots];
            for &c in &node.children {
                if let Route::Operand { owner, idx } = tree.nodes[c].route {
                    if owner == q && tree.nodes[c].parent == Some(q) {
                        flags[idx] = tree.nodes[c].axis == QAxis::Descendant;
                    }
                }
            }
            operand_sideways[q] = flags;
        }
        let mut element_nodes = Vec::new();
        let mut attribute_nodes = Vec::new();
        let mut text_nodes = Vec::new();
        let mut comment_nodes = Vec::new();
        let mut descendant_parents = Vec::new();
        for (q, node) in tree.nodes.iter().enumerate().skip(1) {
            if node.axis == QAxis::Attribute {
                attribute_nodes.push(q);
                continue;
            }
            if node.axis == QAxis::Descendant {
                descendant_parents.push(node.parent.expect("non-root"));
            }
            match node.test {
                NodeTest::Name { .. } | NodeTest::AnyName => element_nodes.push(q),
                NodeTest::AnyKind => {
                    element_nodes.push(q);
                    // node() kind tests match text nodes too, but only leaf
                    // query nodes can bind a text node (text has no
                    // children).
                    if node.children.is_empty() {
                        text_nodes.push(q);
                    }
                }
                NodeTest::Text => text_nodes.push(q),
                NodeTest::Comment => comment_nodes.push(q),
            }
        }
        let widest = tree.nodes.iter().map(|n| n.operand_slots).max();
        let mut scan = QuickXScan {
            tree,
            dict,
            stacks: (0..n).map(|_| Stack::default()).collect(),
            spare_text: Vec::new(),
            matched: Vec::new(),
            opened: Vec::new(),
            doc_depth: 0,
            accumulators: Vec::new(),
            memo_keys: Vec::new(),
            memo_rows: Vec::new(),
            element_nodes,
            attribute_nodes,
            text_nodes,
            comment_nodes,
            descendant_parents,
            operand_sideways,
            no_operands: (0..widest.unwrap_or(0)).map(|_| Vec::new()).collect(),
            next_inst: 1,
            next_order: 0,
            live: 0,
            current: Vec::new(),
            has_current: false,
            ids: Vec::new(),
            stats: ScanStats::default(),
        };
        scan.reset();
        scan
    }

    /// Supply the node ID of the *next* event's node (used by the engine when
    /// scanning persistent records, so results and index keys carry logical
    /// node IDs). The bytes are copied into a reusable buffer; a [`NodeId`]
    /// is built only if the node ends up in the result.
    pub fn set_current_node(&mut self, id: &[u8]) {
        self.current.clear();
        self.current.extend_from_slice(id);
        self.has_current = true;
    }

    /// Abandon the current document (complete or not) and get ready for the
    /// next one: every instance, operand and pending value is dropped and
    /// match numbering restarts. Buffers, the name memo and `stats` are kept.
    pub fn reset(&mut self) {
        for stack in &mut self.stacks {
            for inst in &mut stack.slots[..stack.len] {
                inst.clear(&mut self.spare_text);
            }
            stack.len = 0;
        }
        self.matched.clear();
        self.opened.clear();
        self.accumulators.clear();
        self.doc_depth = 0;
        self.next_inst = 1;
        self.next_order = 0;
        self.live = 0;
        self.has_current = false;
        self.ids.clear();
        // The root query node's instance spans the whole document.
        self.push_instance(0, 0, 0, None);
    }

    /// Finish a document after `EndDocument`: append its result sequence (in
    /// document order) to `out` and reset for the next document.
    pub fn finish_into(&mut self, out: &mut Vec<ResultItem>) -> XResult<()> {
        let done = self.take_results(out);
        self.reset();
        done
    }

    /// Finish after `EndDocument`, returning the result sequence.
    pub fn finish(mut self) -> XResult<Vec<ResultItem>> {
        let mut out = Vec::new();
        self.take_results(&mut out)?;
        Ok(out)
    }

    fn take_results(&mut self, out: &mut Vec<ResultItem>) -> XResult<()> {
        let stack = &mut self.stacks[0];
        stack.len = stack.len.checked_sub(1).ok_or_else(|| XPathError::Eval {
            message: "unbalanced document (root instance missing)".into(),
        })?;
        self.live -= 1;
        let root = &mut stack.slots[stack.len];
        // Root-level predicates (rare: `/.[…]/…`).
        let pass = self.tree.nodes[0]
            .predicates
            .iter()
            .all(|p| eval_pexpr(p, &root.operands));
        if !pass {
            root.held.clear();
        }
        let start = out.len();
        let ids = &self.ids;
        let items = root.held.drain(..).chain(root.transit.drain(..));
        out.extend(items.map(|i| ResultItem {
            node:
                i.id.map(|(s, len)| NodeId::from_bytes_unchecked(ids[s..s + len].to_vec())),
            value: i.value,
            order: i.order,
        }));
        // Orders are unique, so an unstable sort gives the same sequence.
        out[start..].sort_unstable_by_key(|i| i.order);
        root.clear(&mut self.spare_text);
        Ok(())
    }

    /// Convenience: number of live matching instances right now.
    pub fn live_instances(&self) -> usize {
        self.live
    }

    /// The virtual-SAX skip hook, asked right after an element's start:
    /// `false` means nothing inside the element can match or contribute a
    /// value, so the event source may jump over its content and send the
    /// element's end next. That holds when
    ///
    /// * the element matched no query node (so no child- or attribute-axis
    ///   node can be licensed inside it),
    /// * no string-value accumulator is open (so no text inside it is part
    ///   of a value), and
    /// * no descendant-axis query node has a live parent instance (so no
    ///   descendant-axis node can be licensed inside it either).
    ///
    /// Every match inside the content would need a licensing instance, and
    /// by these three conditions none exists or can be created there.
    pub fn wants_content(&self) -> bool {
        let Some(&start) = self.opened.last() else {
            return true;
        };
        self.matched.len() > start
            || !self.accumulators.is_empty()
            || self
                .descendant_parents
                .iter()
                .any(|&p| !self.stacks[p].is_empty())
    }

    /// A value string to fill, reused when one is spare.
    fn text_buf(&mut self) -> String {
        self.spare_text.pop().unwrap_or_default()
    }

    /// Record the current node's ID for a main-path item.
    fn current_id(&mut self, route: Route) -> Option<(usize, usize)> {
        if route != Route::Main || !self.has_current {
            return None;
        }
        let start = self.ids.len();
        self.ids.extend_from_slice(&self.current);
        Some((start, self.current.len()))
    }

    fn push_instance(
        &mut self,
        q: usize,
        depth: u32,
        parent_inst: u64,
        upward: Option<(usize, usize)>,
    ) -> usize {
        let tree = self.tree;
        let node = &tree.nodes[q];
        let own = if node.produces_value {
            self.next_order += 1;
            Some(Item {
                value: String::new(),
                id: self.current_id(node.route),
                order: self.next_order,
            })
        } else {
            None
        };
        let accumulates = node.produces_value || !node.self_value_operands.is_empty();
        let stack = &mut self.stacks[q];
        if stack.len == stack.slots.len() {
            stack.slots.push(Instance::new(node.operand_slots));
        }
        let pos = stack.len;
        stack.len += 1;
        let inst = &mut stack.slots[pos];
        inst.id = self.next_inst;
        inst.depth = depth;
        inst.parent_inst = parent_inst;
        inst.upward = upward;
        inst.held.extend(own);
        if accumulates && inst.text.capacity() == 0 {
            inst.text = self.spare_text.pop().unwrap_or_default();
        }
        self.next_inst += 1;
        if accumulates {
            self.accumulators.push((q, pos));
        }
        self.live += 1;
        self.stats.matchings += 1;
        self.stats.peak_instances = self.stats.peak_instances.max(self.live);
        pos
    }

    /// The memo row (offset into `memo_rows`) of name-test outcomes for
    /// `name`, computing it on the first sighting of the name.
    fn name_row(&mut self, name: QNameId) -> usize {
        match self.memo_keys.binary_search_by_key(&name, |&(k, _)| k) {
            Ok(i) => self.memo_keys[i].1,
            Err(i) => {
                let row = self.memo_rows.len();
                for node in &self.tree.nodes {
                    let hit = match &node.test {
                        NodeTest::AnyName | NodeTest::AnyKind => true,
                        NodeTest::Text | NodeTest::Comment => false,
                        NodeTest::Name {
                            uri: Some(u),
                            local,
                        } => self.dict.matches(name, u, local),
                        NodeTest::Name { uri: None, local } => self.dict.matches_local(name, local),
                    };
                    self.memo_rows.push(hit);
                }
                self.memo_keys.insert(i, (name, row));
                row
            }
        }
    }

    /// Licensing check against the parent step's stack top (the paper's
    /// "only the stack top needs to be checked"). `node_depth` is the
    /// document depth of the node being matched (elements: the element's own
    /// depth; text/comments: one below the current element; attributes: the
    /// current element's depth, with the attribute axis requiring the owner
    /// itself). When the top instance was pushed by the node's own element it
    /// cannot license the node — the instance directly beneath is consulted
    /// instead (each element pushes at most one instance per stack, so one
    /// step down suffices).
    fn licensed(&self, q: usize, node_depth: u32) -> Option<usize> {
        let parent = self.tree.nodes[q].parent?;
        let stack = self.stacks[parent].live();
        let mut pos = stack.len().checked_sub(1)?;
        let axis = self.tree.nodes[q].axis;
        let want = |inst: &Instance| match axis {
            QAxis::Child => inst.depth + 1 == node_depth,
            QAxis::Descendant => inst.depth < node_depth,
            QAxis::Attribute => inst.depth == node_depth,
        };
        if axis != QAxis::Attribute && stack[pos].depth >= node_depth {
            pos = pos.checked_sub(1)?;
        }
        if want(&stack[pos]) {
            Some(pos)
        } else {
            None
        }
    }

    fn on_start_element(&mut self, name: QNameId) {
        self.doc_depth += 1;
        self.opened.push(self.matched.len());
        let row = self.name_row(name);
        // Query nodes are created parents-first, so iterating in index order
        // sees a parent's fresh instance before its children are tested —
        // needed for same-element parent/child matches on child-axis chains.
        for i in 0..self.element_nodes.len() {
            let q = self.element_nodes[i];
            if !self.memo_rows[row + q] {
                continue;
            }
            let Some(ptop_pos) = self.licensed(q, self.doc_depth) else {
                continue;
            };
            let parent = self.tree.nodes[q].parent.expect("non-root");
            let ptop_id = self.stacks[parent].slots[ptop_pos].id;
            // Upward link unless this instance shares its previous-step
            // matching with the instance below it in the same stack.
            let upward = match self.stacks[q].top() {
                Some(below) if below.parent_inst == ptop_id => None,
                _ => Some((parent, ptop_pos)),
            };
            self.push_instance(q, self.doc_depth, ptop_id, upward);
            self.matched.push(q);
        }
    }

    fn on_end_element(&mut self) -> XResult<()> {
        let start = self.opened.pop().ok_or_else(|| XPathError::Eval {
            message: "unbalanced end element".into(),
        })?;
        // Children pop before parents (reverse creation order).
        while self.matched.len() > start {
            let q = self.matched.pop().expect("length checked");
            self.pop_instance(q);
        }
        self.doc_depth -= 1;
        Ok(())
    }

    fn pop_instance(&mut self, q: usize) {
        let tree = self.tree;
        let node = &tree.nodes[q];
        let stack = &mut self.stacks[q];
        stack.len = stack.len.checked_sub(1).expect("matched list is accurate");
        let pos = stack.len;
        self.live -= 1;
        // The popped instance stays in its slot; `lower` is the live stack
        // beneath it.
        let (lower, popped) = stack.slots.split_at_mut(pos);
        let inst = &mut popped[0];
        if node.produces_value || !node.self_value_operands.is_empty() {
            // Remove the accumulator registration (it is at the tail region).
            if let Some(i) = self
                .accumulators
                .iter()
                .rposition(|&(aq, ap)| aq == q && ap == pos)
            {
                self.accumulators.swap_remove(i);
            }
            // `.` operands: the node's own string value feeds the slot.
            for &idx in &node.self_value_operands {
                self.next_order += 1;
                let mut value = self.spare_text.pop().unwrap_or_default();
                value.push_str(&inst.text);
                inst.operands[idx].push(Item {
                    value,
                    id: None,
                    order: self.next_order,
                });
            }
            if node.produces_value {
                inst.held[0].value = std::mem::take(&mut inst.text);
            }
        }
        // Predicate filtering of the held candidate values (must run before
        // the operand sequences are drained for sideways propagation).
        let pass = node
            .predicates
            .iter()
            .all(|p| eval_pexpr(p, &inst.operands));
        // Table 1, nested-owner rule: operand sequences gathered under this
        // instance also belong to the enclosing instance of the same step
        // when the operand chain uses the descendant axis — propagate
        // sideways regardless of this instance's own predicate outcome.
        if node.operand_slots > 0 {
            if let Some(below) = lower.last_mut() {
                for idx in 0..node.operand_slots {
                    if self.operand_sideways[q][idx] && !inst.operands[idx].is_empty() {
                        self.stats.propagations += 1;
                        below.operands[idx].append(&mut inst.operands[idx]);
                    }
                }
            }
        }
        // Values that survive: own-path values only when this binding's
        // predicates hold, transiting values unconditionally. Their order in
        // the target list does not matter: every item carries its match
        // number, and the result is sorted by it when it is taken.
        let own_leaves = pass && !inst.held.is_empty();
        if own_leaves || !inst.transit.is_empty() {
            self.stats.propagations += 1;
            match inst.upward {
                // Sideways: merge into the nested instance below (it shares
                // the previous-step matching — first transitivity property).
                // Already-filtered values transit; they are not re-filtered
                // by the receiving binding's predicates.
                None => {
                    let target = &mut lower.last_mut().expect("shared matching").transit;
                    if own_leaves {
                        target.append(&mut inst.held);
                    }
                    target.append(&mut inst.transit);
                }
                // Upward: the licensing instance sits in the parent node's
                // stack. The two lists are lent out of the slot meanwhile
                // and put back empty, keeping their capacity.
                Some((pq, ppos)) => {
                    let mut held = std::mem::take(&mut inst.held);
                    let mut transit = std::mem::take(&mut inst.transit);
                    let target = &mut self.stacks[pq].slots[ppos];
                    let target = match node.route {
                        Route::Operand { owner, idx } if owner == pq => &mut target.operands[idx],
                        _ => &mut target.held,
                    };
                    if own_leaves {
                        target.append(&mut held);
                    }
                    target.append(&mut transit);
                    let inst = &mut self.stacks[q].slots[pos];
                    inst.held = held;
                    inst.transit = transit;
                }
            }
        }
        self.stacks[q].slots[pos].clear(&mut self.spare_text);
    }

    /// Instantaneous match of a leaf node (attribute / text / comment):
    /// deliver the value straight to the licensing parent instance.
    fn instantaneous(&mut self, q: usize, value: &str, node_depth: u32) {
        let Some(ptop_pos) = self.licensed(q, node_depth) else {
            return;
        };
        let tree = self.tree;
        let node = &tree.nodes[q];
        // Leaf predicates see empty operand sequences.
        let no_operands = &self.no_operands[..node.operand_slots];
        if !node.predicates.iter().all(|p| eval_pexpr(p, no_operands)) {
            return;
        }
        let parent = node.parent.expect("non-root");
        self.next_order += 1;
        let mut text = self.text_buf();
        text.push_str(value);
        let item = Item {
            value: text,
            id: self.current_id(node.route),
            order: self.next_order,
        };
        self.stats.matchings += 1;
        self.stats.propagations += 1;
        let target = &mut self.stacks[parent].slots[ptop_pos];
        match node.route {
            Route::Operand { owner, idx } if owner == parent => {
                target.operands[idx].push(item);
            }
            _ => target.held.push(item),
        }
    }

    fn on_attribute(&mut self, name: QNameId, value: &str) {
        if self.attribute_nodes.is_empty() {
            return;
        }
        let row = self.name_row(name);
        for i in 0..self.attribute_nodes.len() {
            let q = self.attribute_nodes[i];
            if self.memo_rows[row + q] {
                self.instantaneous(q, value, self.doc_depth);
            }
        }
    }

    fn on_text(&mut self, value: &str) {
        // Feed every open string-value accumulator (string value = all
        // descendant text).
        for &(q, pos) in &self.accumulators {
            self.stacks[q].slots[pos].text.push_str(value);
        }
        for i in 0..self.text_nodes.len() {
            self.instantaneous(self.text_nodes[i], value, self.doc_depth + 1);
        }
    }

    fn on_comment(&mut self, value: &str) {
        for i in 0..self.comment_nodes.len() {
            self.instantaneous(self.comment_nodes[i], value, self.doc_depth + 1);
        }
    }

    /// Debug view of a stack's depths (used by the Fig. 7 test).
    pub fn stack_depths(&self, q: usize) -> Vec<u32> {
        self.stacks[q].live().iter().map(|i| i.depth).collect()
    }
}

impl EventSink for QuickXScan<'_, '_> {
    fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
        self.stats.events += 1;
        match ev {
            Event::StartDocument
            | Event::EndDocument
            | Event::NamespaceDecl { .. }
            | Event::Pi { .. } => {}
            Event::StartElement { name } => self.on_start_element(name),
            Event::EndElement => self
                .on_end_element()
                .map_err(|e| rx_xml::XmlError::stream(e.to_string()))?,
            Event::Attribute { name, value, .. } => self.on_attribute(name, value),
            Event::Text { value, .. } => self.on_text(value),
            Event::Comment { value } => self.on_comment(value),
        }
        // The supplied ID belonged to this event's node only.
        self.has_current = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Predicate evaluation (existential general-comparison semantics)
// ---------------------------------------------------------------------------

fn eval_pexpr(e: &PExpr, operands: &[Vec<Item>]) -> bool {
    match e {
        PExpr::Or(a, b) => eval_pexpr(a, operands) || eval_pexpr(b, operands),
        PExpr::And(a, b) => eval_pexpr(a, operands) && eval_pexpr(b, operands),
        PExpr::Not(a) => !eval_pexpr(a, operands),
        PExpr::Exists(idx) => !operands[*idx].is_empty(),
        PExpr::Cmp(op, lhs, rhs) => eval_cmp(*op, lhs, rhs, operands),
    }
}

fn eval_cmp(op: CmpOp, lhs: &POp, rhs: &POp, operands: &[Vec<Item>]) -> bool {
    use POp::*;
    match (lhs, rhs) {
        // Normalize literal-on-the-left by flipping.
        (Literal(_) | Number(_), Seq(_) | Count(_)) => eval_cmp(op.flip(), rhs, lhs, operands),
        (Seq(i), Literal(s)) => operands[*i].iter().any(|v| cmp_str(op, &v.value, s)),
        (Seq(i), Number(n)) => operands[*i].iter().any(|v| {
            v.value
                .trim()
                .parse::<f64>()
                .is_ok_and(|x| num_cmp(op, x, *n))
        }),
        (Seq(i), Seq(j)) => operands[*i]
            .iter()
            .any(|a| operands[*j].iter().any(|b| cmp_str(op, &a.value, &b.value))),
        (Count(i), Number(n)) => num_cmp(op, operands[*i].len() as f64, *n),
        (Count(i), Literal(s)) => s
            .trim()
            .parse::<f64>()
            .is_ok_and(|n| num_cmp(op, operands[*i].len() as f64, n)),
        (Count(i), Count(j)) => num_cmp(op, operands[*i].len() as f64, operands[*j].len() as f64),
        (Count(i), Seq(j)) => operands[*j].iter().any(|v| {
            v.value
                .trim()
                .parse::<f64>()
                .is_ok_and(|x| num_cmp(op, operands[*i].len() as f64, x))
        }),
        (Seq(i), Count(j)) => operands[*i].iter().any(|v| {
            v.value
                .trim()
                .parse::<f64>()
                .is_ok_and(|x| num_cmp(op, x, operands[*j].len() as f64))
        }),
        (Literal(a), Literal(b)) => cmp_str(op, a, b),
        (Number(a), Number(b)) => num_cmp(op, *a, *b),
        (Literal(a), Number(b)) => a.trim().parse::<f64>().is_ok_and(|x| num_cmp(op, x, *b)),
        (Number(a), Literal(b)) => b.trim().parse::<f64>().is_ok_and(|x| num_cmp(op, *a, x)),
    }
}

fn num_cmp(op: CmpOp, a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some_and(|o| op.test(o))
}

/// XPath 1.0 style: `=`/`!=` compare as strings, ordering operators compare
/// numerically.
fn cmp_str(op: CmpOp, a: &str, b: &str) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        _ => match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
            (Ok(x), Ok(y)) => num_cmp(op, x, y),
            _ => false,
        },
    }
}

/// Evaluate a compiled query over XML text (parse + scan in one pipeline).
///
/// ```
/// use rx_xml::NameDict;
/// use rx_xpath::{QueryTree, XPathParser, scan_str};
///
/// let dict = NameDict::new();
/// let path = XPathParser::new().parse("//item[price > 10]/name").unwrap();
/// let tree = QueryTree::compile(&path).unwrap();
/// let doc = "<cat><item><name>a</name><price>5</price></item>\
///            <item><name>b</name><price>20</price></item></cat>";
/// let (hits, stats) = scan_str(&tree, &dict, doc).unwrap();
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].value, "b");
/// assert!(stats.peak_instances <= tree.size() * 2);
/// ```
pub fn scan_str(
    tree: &QueryTree,
    dict: &NameDict,
    input: &str,
) -> XResult<(Vec<ResultItem>, ScanStats)> {
    let mut scan = QuickXScan::new(tree, dict);
    rx_xml::Parser::new(dict)
        .parse(input, &mut scan)
        .map_err(|e| XPathError::Eval {
            message: e.to_string(),
        })?;
    let stats = scan.stats;
    Ok((scan.finish()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::XPathParser;

    fn run(query: &str, doc: &str) -> Vec<String> {
        let path = XPathParser::new().parse(query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        let (items, _) = scan_str(&tree, &dict, doc).unwrap();
        items.into_iter().map(|i| i.value).collect()
    }

    #[test]
    fn simple_child_path() {
        let doc = "<a><b>1</b><c>skip</c><b>2</b></a>";
        assert_eq!(run("/a/b", doc), vec!["1", "2"]);
        assert_eq!(run("/a/c", doc), vec!["skip"]);
        assert!(run("/a/x", doc).is_empty());
        assert!(run("/x/b", doc).is_empty());
    }

    #[test]
    fn descendant_path() {
        let doc = "<a><b><c>1</c></b><c>2</c><d><e><c>3</c></e></d></a>";
        assert_eq!(run("//c", doc), vec!["1", "2", "3"]);
        assert_eq!(run("/a//c", doc), vec!["1", "2", "3"]);
        assert_eq!(run("/a/d//c", doc), vec!["3"]);
    }

    #[test]
    fn recursive_document_no_duplicates() {
        // //a//b with nested a elements: each b reported once (the paper's
        // first transitivity property / duplicate-free propagation).
        let doc = "<a><a><b>x</b></a><b>y</b></a>";
        assert_eq!(run("//a//b", doc), vec!["x", "y"]);
        // Deeper recursion.
        let doc = "<a><a><a><b>q</b></a></a></a>";
        assert_eq!(run("//a//b", doc), vec!["q"]);
        assert_eq!(run("//a//a//b", doc), vec!["q"]);
    }

    #[test]
    fn nested_result_elements_in_document_order() {
        let doc = "<r><a>out<a>in</a></a></r>";
        assert_eq!(run("//a", doc), vec!["outin", "in"]);
    }

    #[test]
    fn attribute_results() {
        let doc = r#"<r><p id="1"/><p id="2"/></r>"#;
        assert_eq!(run("/r/p/@id", doc), vec!["1", "2"]);
        assert_eq!(run("//p/@id", doc), vec!["1", "2"]);
    }

    #[test]
    fn text_results() {
        let doc = "<r><p>one</p><p>two</p></r>";
        assert_eq!(run("/r/p/text()", doc), vec!["one", "two"]);
    }

    #[test]
    fn value_predicates() {
        let doc = r#"<Catalog><Categories>
            <Product><RegPrice>150</RegPrice><ProductName>A</ProductName></Product>
            <Product><RegPrice>50</RegPrice><ProductName>B</ProductName></Product>
            <Product><RegPrice>250</RegPrice><ProductName>C</ProductName></Product>
        </Categories></Catalog>"#;
        let names = run(
            "/Catalog/Categories/Product[RegPrice > 100]/ProductName",
            doc,
        );
        assert_eq!(names, vec!["A", "C"]);
        let names = run(
            "/Catalog/Categories/Product[RegPrice = 50]/ProductName",
            doc,
        );
        assert_eq!(names, vec!["B"]);
    }

    #[test]
    fn the_fig6_query_end_to_end() {
        // //s[.//t = "XML" and f/@w > 300]
        let q = r#"//s[.//t = "XML" and f/@w > 300]"#;
        // Satisfying document.
        let doc = r#"<r><s><p><t>XML</t></p><f w="400"/>yes</s>
                      <s><t>XML</t><f w="100"/>no-w</s>
                      <s><f w="999"/>no-t</s></r>"#;
        let got = run(q, doc);
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("yes"));
    }

    #[test]
    fn fig7_stack_state_at_t4() {
        // Fig. 6(b) document: r0 > s1(p1(t1? no…)) — we reproduce the stack
        // situation: when t4 (nested under s2>s3) matches, the s-stack holds
        // s2, s3 (plus the document-spanning root) and only the top was
        // consulted. Document shaped like Fig. 6(b): s2 contains s3 contains
        // t3/t4 region.
        let path = XPathParser::new().parse(r#"//s[.//t = "XML"]"#).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        let mut scan = QuickXScan::new(&tree, &dict);
        let doc = "<r0><s2><s3><t4>";
        // Drive events manually to freeze the moment t4 is open.
        let p = rx_xml::Parser::new(&dict);
        // Parse a full document but check state via a probe: simpler to send
        // events by hand.
        let _ = p;
        use rx_xml::event::Event;
        let s_name = dict.intern("", "", "s");
        let r_name = dict.intern("", "", "r0");
        let t_name = dict.intern("", "", "t");
        scan.event(Event::StartDocument).unwrap();
        scan.event(Event::StartElement { name: r_name }).unwrap();
        scan.event(Event::StartElement { name: s_name }).unwrap(); // s2
        scan.event(Event::StartElement { name: s_name }).unwrap(); // s3
        scan.event(Event::StartElement { name: t_name }).unwrap(); // t4
                                                                   // The s query node is node 1; its stack holds exactly the two nested
                                                                   // s instances (depths 2 and 3) — Fig. 7(b).
        assert_eq!(scan.stack_depths(1), vec![2, 3]);
        // The t query node's stack holds t4.
        assert_eq!(scan.stack_depths(2), vec![4]);
        // Total live: root + s2 + s3 + t4.
        assert_eq!(scan.live_instances(), 4);
        let _ = doc;
    }

    #[test]
    fn table1_case1_child_single() {
        // Path a/b, one a with several b children: s = all b values, upward.
        let doc = "<a><b>1</b><b>2</b><b>3</b></a>";
        assert_eq!(run("/a/b", doc), vec!["1", "2", "3"]);
    }

    #[test]
    fn table1_case2_child_nested_as() {
        // Path a//x where multiple a instances nest: child axis from a.
        // Table 1 row 2: no sideways propagation for child-axis sequences —
        // each a sees only its own children.
        let doc = "<r><a><b>outer</b><a><b>inner</b></a></a></r>";
        // //a[b = "inner"] must match only the inner a.
        let got = run(r#"//a[b = "inner"]"#, doc);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], "inner");
        // //a[b = "outer"] must match only the outer a.
        let got = run(r#"//a[b = "outer"]"#, doc);
        assert_eq!(got.len(), 1);
        assert!(got[0].starts_with("outer"));
    }

    #[test]
    fn table1_case3_descendant() {
        // Path a//b: descendants accumulate across nesting without dupes.
        let doc = "<r><a><c><b>1</b></c><b>2</b></a></r>";
        assert_eq!(run("//a//b", doc), vec!["1", "2"]);
    }

    #[test]
    fn table1_case4_descendant_nested_owner() {
        // a//b with nested a's: inner a's descendants belong to the outer a
        // too (sideways owner propagation) — predicate on the OUTER a must
        // see values found only under the inner a.
        let doc = r#"<r><a><a><b>deep</b></a></a></r>"#;
        let got = run(r#"//a[.//b = "deep"]"#, doc);
        // Both the outer and inner a qualify.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn count_and_exists_predicates() {
        let doc = "<r><o><i/><i/></o><o><i/></o><o/></r>";
        assert_eq!(run("/r/o[count(i) >= 2]", doc).len(), 1);
        assert_eq!(run("/r/o[count(i) = 1]", doc).len(), 1);
        assert_eq!(run("/r/o[i]", doc).len(), 2);
        assert_eq!(run("/r/o[not(i)]", doc).len(), 1);
    }

    #[test]
    fn boolean_connectives() {
        let doc = r#"<r><p a="1" b="2"/><p a="1"/><p b="2"/></r>"#;
        assert_eq!(run("/r/p[@a = 1 and @b = 2]", doc).len(), 1);
        assert_eq!(run("/r/p[@a = 1 or @b = 2]", doc).len(), 3);
        assert_eq!(run("/r/p[not(@a) and @b = 2]", doc).len(), 1);
    }

    #[test]
    fn wildcard_steps() {
        let doc = "<r><x><v>1</v></x><y><v>2</v></y></r>";
        assert_eq!(run("/r/*/v", doc), vec!["1", "2"]);
        assert_eq!(run("/r/*", doc), vec!["1", "2"]);
    }

    #[test]
    fn stats_track_peak_instances() {
        let path = XPathParser::new().parse("//a//a").unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        // Recursion depth 6 document.
        let doc = "<a><a><a><a><a><a>x</a></a></a></a></a></a>";
        let (_, stats) = scan_str(&tree, &dict, doc).unwrap();
        // peak ≤ |Q| * r + 1 (root instance): |Q|=3 (incl. root), r=6.
        assert!(stats.peak_instances <= 3 * 6 + 1, "{stats:?}");
        assert!(stats.matchings > 0);
        assert!(stats.events > 0);
    }

    #[test]
    fn string_values_concatenate_descendants() {
        let doc = "<r><p>a<b>b</b>c</p></r>";
        assert_eq!(run("/r/p", doc), vec!["abc"]);
    }

    #[test]
    fn comparison_of_two_paths() {
        let doc = "<r><o><x>5</x><y>5</y></o><o><x>1</x><y>2</y></o></r>";
        assert_eq!(run("/r/o[x = y]", doc).len(), 1);
        assert_eq!(run("/r/o[x != y]", doc).len(), 1);
    }

    #[test]
    fn comment_nodes() {
        let doc = "<r><a><!--note--></a><b><!--memo--></b></r>";
        assert_eq!(run("//comment()", doc), vec!["note", "memo"]);
    }

    #[test]
    fn deep_linear_chain() {
        let mut doc = String::new();
        for _ in 0..50 {
            doc.push_str("<d>");
        }
        doc.push_str("leaf");
        for _ in 0..50 {
            doc.push_str("</d>");
        }
        let got = run("//d[not(d)]", &doc);
        assert_eq!(got, vec!["leaf"]);
    }
}
