//! Baseline XPath evaluators the paper compares QuickXScan against (§4.2):
//!
//! * [`DomXPath`] — a recursive evaluator over a materialized DOM tree ("some
//!   DOM-based algorithm", reported orders of magnitude slower end-to-end
//!   because of tree construction);
//! * [`NaiveStreamMatcher`] — a streaming matcher in the style of pre-stack
//!   automaton algorithms \[17\] \[26\] that tracks every **partial match
//!   instance** (binding of a query prefix to concrete ancestors)
//!   independently. On a recursive document, a path like `//a//a//a` makes
//!   its live-instance count grow combinatorially in the recursion degree r —
//!   the exponential active-state blowup of Fig. 7(c) that QuickXScan's
//!   stack-top sharing avoids.
//!
//! Both produce the same results as QuickXScan (differential tests rely on
//! this); only their cost profiles differ.

use rx_xml::dom::{DomId, DomKind, DomTree};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::{NameDict, QNameId};
use rx_xpath::ast::{CmpOp, NodeTest};
use rx_xpath::error::{Result, XPathError};
use rx_xpath::query_tree::{PExpr, POp, QAxis, QueryTree, Route};
use rx_xpath::quickxscan::ResultItem;

// ---------------------------------------------------------------------------
// DOM-based evaluation
// ---------------------------------------------------------------------------

/// Recursive DOM evaluator for compiled query trees.
pub struct DomXPath<'q, 'd> {
    tree: &'q QueryTree,
    dict: &'d NameDict,
}

impl<'q, 'd> DomXPath<'q, 'd> {
    /// Bind an evaluator.
    pub fn new(tree: &'q QueryTree, dict: &'d NameDict) -> Self {
        DomXPath { tree, dict }
    }

    /// Evaluate over a DOM, returning result string values in document order.
    pub fn eval(&self, dom: &DomTree) -> Vec<String> {
        let matches = self.eval_node_set(dom, DomTree::ROOT, self.tree.result);
        matches
            .into_iter()
            .map(|m| self.string_of(dom, m))
            .collect()
    }

    fn string_of(&self, dom: &DomTree, m: Match) -> String {
        match m {
            Match::Node(id) => dom.string_value(id),
            Match::Attr(_, v) => v,
        }
    }

    /// All matches of query node `q` given that `q`'s parent chain is
    /// anchored at the document root.
    fn eval_node_set(&self, dom: &DomTree, _root: DomId, q: usize) -> Vec<Match> {
        // Build the chain root → … → q.
        let mut chain = vec![q];
        let mut cur = q;
        while let Some(p) = self.tree.nodes[cur].parent {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        // Walk the chain from the document node.
        let mut frontier: Vec<Match> = vec![Match::Node(DomTree::ROOT)];
        for win in chain.windows(2) {
            let step = win[1];
            let mut next = Vec::new();
            for m in &frontier {
                let Match::Node(ctx) = m else { continue };
                self.step_matches(dom, *ctx, step, &mut next);
            }
            // Document order + dedup (the arena assigns ids in document
            // order, so sorting by id restores it).
            next.sort();
            next.dedup();
            frontier = next;
        }
        frontier
    }

    fn step_matches(&self, dom: &DomTree, ctx: DomId, q: usize, out: &mut Vec<Match>) {
        let node = &self.tree.nodes[q];
        match node.axis {
            QAxis::Attribute => {
                if let DomKind::Element { attrs, .. } = &dom.node(ctx).kind {
                    for (aname, value) in attrs {
                        if self.attr_test(&node.test, *aname) {
                            out.push(Match::Attr(ctx, value.clone()));
                        }
                    }
                }
            }
            QAxis::Child => {
                for &c in dom.children(ctx) {
                    if self.node_test(dom, c, &node.test) && self.predicates_hold(dom, c, q) {
                        out.push(Match::Node(c));
                    }
                }
            }
            QAxis::Descendant => {
                self.walk_descendants(dom, ctx, &mut |c| {
                    if self.node_test(dom, c, &node.test) && self.predicates_hold(dom, c, q) {
                        out.push(Match::Node(c));
                    }
                });
            }
        }
    }

    fn walk_descendants(&self, dom: &DomTree, ctx: DomId, f: &mut impl FnMut(DomId)) {
        for &c in dom.children(ctx) {
            f(c);
            self.walk_descendants(dom, c, f);
        }
    }

    fn node_test(&self, dom: &DomTree, id: DomId, test: &NodeTest) -> bool {
        match (&dom.node(id).kind, test) {
            (DomKind::Element { .. }, NodeTest::AnyName | NodeTest::AnyKind) => true,
            (DomKind::Element { name, .. }, NodeTest::Name { uri, local }) => match uri {
                Some(u) => self.dict.matches(*name, u, local),
                None => self.dict.matches_local(*name, local),
            },
            (DomKind::Text(_), NodeTest::Text | NodeTest::AnyKind) => true,
            (DomKind::Comment(_), NodeTest::Comment | NodeTest::AnyKind) => true,
            (DomKind::Pi { .. }, NodeTest::AnyKind) => true,
            _ => false,
        }
    }

    fn attr_test(&self, test: &NodeTest, name: QNameId) -> bool {
        match test {
            NodeTest::AnyName | NodeTest::AnyKind => true,
            NodeTest::Name { uri, local } => match uri {
                Some(u) => self.dict.matches(name, u, local),
                None => self.dict.matches_local(name, local),
            },
            _ => false,
        }
    }

    fn predicates_hold(&self, dom: &DomTree, ctx: DomId, q: usize) -> bool {
        let node = &self.tree.nodes[q];
        if node.predicates.is_empty() {
            return true;
        }
        // Gather operand sequences rooted at ctx.
        let mut operands: Vec<Vec<ResultItem>> = vec![Vec::new(); node.operand_slots];
        for &idx in &node.self_value_operands {
            operands[idx].push(ResultItem::of(dom.string_value(ctx)));
        }
        for &c in &node.children {
            if let Route::Operand { owner, idx } = self.tree.nodes[c].route {
                if owner == q {
                    let mut out = Vec::new();
                    self.collect_operand(dom, ctx, c, &mut out);
                    operands[idx] = out;
                }
            }
        }
        node.predicates.iter().all(|p| eval_pexpr_dom(p, &operands))
    }

    fn collect_operand(&self, dom: &DomTree, ctx: DomId, q: usize, out: &mut Vec<ResultItem>) {
        let mut step_out = Vec::new();
        self.step_matches(dom, ctx, q, &mut step_out);
        let node = &self.tree.nodes[q];
        // Continue down non-operand children of q belonging to the same chain.
        let chain_children: Vec<usize> = node
            .children
            .iter()
            .copied()
            .filter(|&c| self.tree.nodes[c].route == node.route)
            .collect();
        for m in step_out {
            if chain_children.is_empty() {
                out.push(ResultItem::of(self.string_of(dom, m.clone())));
            } else if let Match::Node(id) = m {
                for &c in &chain_children {
                    self.collect_operand(dom, id, c, out);
                }
            }
        }
    }
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Match {
    Node(DomId),
    Attr(DomId, String),
}

fn eval_pexpr_dom(e: &PExpr, operands: &[Vec<ResultItem>]) -> bool {
    // Same semantics as the streaming evaluator; re-implemented here so the
    // baselines stay independent (differential testing would be meaningless
    // if they shared evaluation code).
    match e {
        PExpr::Or(a, b) => eval_pexpr_dom(a, operands) || eval_pexpr_dom(b, operands),
        PExpr::And(a, b) => eval_pexpr_dom(a, operands) && eval_pexpr_dom(b, operands),
        PExpr::Not(a) => !eval_pexpr_dom(a, operands),
        PExpr::Exists(i) => !operands[*i].is_empty(),
        PExpr::Cmp(op, l, r) => cmp_dom(*op, l, r, operands),
    }
}

fn cmp_dom(op: CmpOp, l: &POp, r: &POp, operands: &[Vec<ResultItem>]) -> bool {
    let num = |o: &POp| -> Option<f64> {
        match o {
            POp::Number(n) => Some(*n),
            POp::Literal(s) => s.trim().parse().ok(),
            POp::Count(i) => Some(operands[*i].len() as f64),
            POp::Seq(_) => None,
        }
    };
    match (l, r) {
        (POp::Seq(i), other) => match other {
            POp::Literal(s) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
                operands[*i].iter().any(|v| match op {
                    CmpOp::Eq => v.value == *s,
                    _ => v.value != *s,
                })
            }
            POp::Seq(j) => operands[*i].iter().any(|a| {
                operands[*j].iter().any(|b| match op {
                    CmpOp::Eq => a.value == b.value,
                    CmpOp::Ne => a.value != b.value,
                    _ => match (a.value.trim().parse::<f64>(), b.value.trim().parse::<f64>()) {
                        (Ok(x), Ok(y)) => x.partial_cmp(&y).is_some_and(|o| op.test(o)),
                        _ => false,
                    },
                })
            }),
            _ => {
                let Some(rhs) = num(other) else { return false };
                operands[*i].iter().any(|v| {
                    v.value
                        .trim()
                        .parse::<f64>()
                        .is_ok_and(|x| x.partial_cmp(&rhs).is_some_and(|o| op.test(o)))
                })
            }
        },
        (other, POp::Seq(_)) => cmp_dom(op.flip(), r, other, operands),
        (a, b) => match (a, b) {
            (POp::Literal(x), POp::Literal(y)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => match op {
                CmpOp::Eq => x == y,
                _ => x != y,
            },
            _ => match (num(a), num(b)) {
                (Some(x), Some(y)) => x.partial_cmp(&y).is_some_and(|o| op.test(o)),
                _ => false,
            },
        },
    }
}

// ---------------------------------------------------------------------------
// Naive streaming matcher (per-partial-match instances)
// ---------------------------------------------------------------------------

/// A streaming matcher for **linear, predicate-free** paths that keeps one
/// live object per partial match — the unshared representation whose state
/// count blows up on recursive documents (Fig. 7(c)). Supports exactly the
/// fragment the Fig. 7 comparison needs (child/descendant chains of name
/// tests).
pub struct NaiveStreamMatcher<'q, 'd> {
    tree: &'q QueryTree,
    /// The linear chain of query nodes (root excluded).
    chain: Vec<usize>,
    dict: &'d NameDict,
    /// Live partial matches: each holds the index of the next step to match
    /// and the depth at which its last step matched.
    partials: Vec<Partial>,
    depth: u32,
    /// Result values (string values accumulated for complete matches).
    results: Vec<String>,
    open_accums: Vec<OpenResult>,
    /// Peak number of live partial-match instances.
    pub peak_instances: usize,
    /// Total instances ever created.
    pub instances_created: u64,
}

#[derive(Clone)]
struct Partial {
    /// Next chain position to match.
    next: usize,
    /// Depth at which the previous step matched.
    depth: u32,
}

struct OpenResult {
    depth: u32,
    text: String,
    /// How many partials completed on this element (duplicates!). The naive
    /// algorithm has to deduplicate explicitly.
    count: usize,
}

impl<'q, 'd> NaiveStreamMatcher<'q, 'd> {
    /// Build from a compiled query tree; fails if the query is not a linear
    /// predicate-free element path.
    pub fn new(tree: &'q QueryTree, dict: &'d NameDict) -> Result<Self> {
        let mut chain = Vec::new();
        let mut cur = 0usize;
        loop {
            let node = &tree.nodes[cur];
            if !node.predicates.is_empty() || node.operand_slots > 0 {
                return Err(XPathError::Unsupported {
                    message: "naive matcher supports predicate-free paths only".into(),
                });
            }
            match node.children.len() {
                0 => break,
                1 => {
                    cur = node.children[0];
                    if tree.nodes[cur].axis == QAxis::Attribute {
                        return Err(XPathError::Unsupported {
                            message: "naive matcher supports element paths only".into(),
                        });
                    }
                    chain.push(cur);
                }
                _ => {
                    return Err(XPathError::Unsupported {
                        message: "naive matcher supports linear paths only".into(),
                    })
                }
            }
        }
        if chain.is_empty() {
            return Err(XPathError::Unsupported {
                message: "empty query".into(),
            });
        }
        Ok(NaiveStreamMatcher {
            tree,
            chain,
            dict,
            partials: vec![Partial { next: 0, depth: 0 }],
            depth: 0,
            results: Vec::new(),
            open_accums: Vec::new(),
            peak_instances: 0,
            instances_created: 1,
        })
    }

    /// Finish, returning (results, peak instance count).
    pub fn finish(self) -> (Vec<String>, usize) {
        (self.results, self.peak_instances)
    }

    fn test(&self, q: usize, name: QNameId) -> bool {
        match &self.tree.nodes[q].test {
            NodeTest::AnyName | NodeTest::AnyKind => true,
            NodeTest::Name { uri, local } => match uri {
                Some(u) => self.dict.matches(name, u, local),
                None => self.dict.matches_local(name, local),
            },
            _ => false,
        }
    }
}

impl EventSink for NaiveStreamMatcher<'_, '_> {
    fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
        match ev {
            Event::StartElement { name } => {
                self.depth += 1;
                // Every live partial may spawn an extended copy — the naive
                // algorithms keep both (no stack sharing).
                let mut spawned = Vec::new();
                let mut completions = 0usize;
                for p in &self.partials {
                    if p.next >= self.chain.len() {
                        continue;
                    }
                    let q = self.chain[p.next];
                    let axis_ok = match self.tree.nodes[q].axis {
                        QAxis::Child => p.depth + 1 == self.depth,
                        QAxis::Descendant => p.depth < self.depth,
                        QAxis::Attribute => false,
                    };
                    if axis_ok && self.test(q, name) {
                        if p.next + 1 == self.chain.len() {
                            completions += 1;
                        }
                        spawned.push(Partial {
                            next: p.next + 1,
                            depth: self.depth,
                        });
                    }
                }
                self.instances_created += spawned.len() as u64;
                self.partials.extend(spawned);
                self.peak_instances = self.peak_instances.max(self.partials.len());
                if completions > 0 {
                    // The element matched (possibly through many bindings) —
                    // emit its string value ONCE (explicit deduplication).
                    self.open_accums.push(OpenResult {
                        depth: self.depth,
                        text: String::new(),
                        count: completions,
                    });
                }
            }
            Event::EndElement => {
                if let Some(top) = self.open_accums.last() {
                    if top.depth == self.depth {
                        // Text events already fed every open accumulator, so
                        // the parent's string value is complete without
                        // re-adding this element's text.
                        let done = self.open_accums.pop().expect("checked above");
                        let _ = done.count; // duplicates discarded
                        self.results.push(done.text);
                    }
                }
                // Retire partials whose last step matched at this depth.
                self.partials
                    .retain(|p| p.depth < self.depth || p.next == 0);
                self.depth -= 1;
            }
            Event::Text { value, .. } => {
                for a in &mut self.open_accums {
                    a.text.push_str(value);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_xpath::parser::XPathParser;
    use rx_xpath::query_tree::QueryTree;
    use rx_xpath::quickxscan::scan_str;

    fn dom_eval(query: &str, doc: &str) -> Vec<String> {
        let path = XPathParser::new().parse(query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        let dom = DomTree::parse(doc, &dict).unwrap();
        DomXPath::new(&tree, &dict).eval(&dom)
    }

    fn naive_eval(query: &str, doc: &str) -> (Vec<String>, usize) {
        let path = XPathParser::new().parse(query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        let mut m = NaiveStreamMatcher::new(&tree, &dict).unwrap();
        rx_xml::Parser::new(&dict).parse(doc, &mut m).unwrap();
        m.finish()
    }

    fn qxs_eval(query: &str, doc: &str) -> Vec<String> {
        let path = XPathParser::new().parse(query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();
        let (items, _) = scan_str(&tree, &dict, doc).unwrap();
        items.into_iter().map(|i| i.value).collect()
    }

    #[test]
    fn dom_agrees_with_quickxscan() {
        let docs = [
            "<a><b>1</b><c><b>2</b></c></a>",
            "<a><a><b>x</b></a><b>y</b></a>",
            r#"<Catalog><Categories><Product><RegPrice>150</RegPrice></Product>
               <Product><RegPrice>50</RegPrice></Product></Categories></Catalog>"#,
        ];
        let queries = [
            "/a/b",
            "//b",
            "//a//b",
            "/Catalog/Categories/Product[RegPrice > 100]",
            "/Catalog/Categories/Product[RegPrice > 100]/RegPrice",
        ];
        for doc in &docs {
            for q in &queries {
                assert_eq!(dom_eval(q, doc), qxs_eval(q, doc), "query {q} on {doc}");
            }
        }
    }

    #[test]
    fn dom_handles_fig6_query() {
        let doc = r#"<r><s><p><t>XML</t></p><f w="400"/>yes</s>
                      <s><t>XML</t><f w="100"/>no</s></r>"#;
        let q = r#"//s[.//t = "XML" and f/@w > 300]"#;
        let got = dom_eval(q, doc);
        assert_eq!(got, qxs_eval(q, doc));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn naive_agrees_on_results() {
        let doc = "<a><a><b>x</b><a><b>y</b></a></a><b>z</b></a>";
        for q in ["/a/b", "//b", "//a//b", "//a/b"] {
            let (naive, _) = naive_eval(q, doc);
            let mut expect = qxs_eval(q, doc);
            let mut naive_sorted = naive.clone();
            naive_sorted.sort();
            expect.sort();
            assert_eq!(naive_sorted, expect, "query {q}");
        }
    }

    #[test]
    fn naive_state_blowup_vs_quickxscan_bound() {
        // //a//a//a over a document of r nested <a> elements: the naive
        // matcher's live partial-match count grows superlinearly in r while
        // QuickXScan stays <= |Q|*r.
        let r = 14usize;
        let mut doc = String::new();
        for _ in 0..r {
            doc.push_str("<a>");
        }
        doc.push('x');
        for _ in 0..r {
            doc.push_str("</a>");
        }
        let query = "//a//a//a";
        let path = XPathParser::new().parse(query).unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        let dict = NameDict::new();

        let (_, naive_peak) = {
            let mut m = NaiveStreamMatcher::new(&tree, &dict).unwrap();
            rx_xml::Parser::new(&dict).parse(&doc, &mut m).unwrap();
            m.finish()
        };
        let (_, stats) = scan_str(&tree, &dict, &doc).unwrap();
        let q_count = tree.size();
        assert!(
            stats.peak_instances <= q_count * r + 1,
            "QuickXScan peak {} exceeds |Q|*r = {}",
            stats.peak_instances,
            q_count * r
        );
        // The naive matcher tracks Θ(r²)+ partials here.
        assert!(
            naive_peak > 4 * stats.peak_instances,
            "naive {naive_peak} vs quickxscan {}",
            stats.peak_instances
        );
    }

    #[test]
    fn naive_rejects_unsupported() {
        let dict = NameDict::new();
        let path = XPathParser::new().parse("/a[b]").unwrap();
        let tree = QueryTree::compile(&path).unwrap();
        assert!(NaiveStreamMatcher::new(&tree, &dict).is_err());
    }

    #[test]
    fn dom_attribute_results() {
        let doc = r#"<r><p id="1"/><p id="2"/></r>"#;
        assert_eq!(dom_eval("//p/@id", doc), vec!["1", "2"]);
    }
}
