//! SQL/XML and XQuery constructor functions (§4.1, Fig. 5).
//!
//! "We optimize constructor functions by flattening the nested functions into
//! one function and represent the nesting structure with a tagging template …
//! The result of the constructor functions is an intermediate result
//! representation that includes a pointer to the template with a data record
//! … This intermediate result is optimized because no repetition of the
//! tagging template occurs, which is very effective for generating XML for
//! large number of repeated rows or the aggregate function XMLAGG."
//!
//! "In addition, for XMLAGG ORDER BY evaluation, typical external SORT will
//! need to sort each group of rows, suffering from significant overhead. We
//! apply in-memory quicksort to the linked list representation of rows in
//! each group of XMLAGG, achieving high performance."
//!
//! This module provides: the constructor expression tree
//! ([`Ctor`]/[`ValueExpr`], modeling XMLELEMENT / XMLATTRIBUTES / XMLFOREST /
//! XMLTEXT / XMLCOMMENT), compilation into a [`Template`] with argument
//! slots, the `(template, data record)` intermediate form ([`Constructed`]),
//! and [`XmlAgg`] with linked-list quicksort. The two *baselines* E7
//! measures against (per-row naive evaluation and external-style run
//! sorting) live in `rx-bench`.

use crate::error::{EngineError, Result};
use rx_xml::event::{Event, EventSink};
use rx_xml::name::{NameDict, QNameId};
use rx_xml::value::TypeAnn;
use std::sync::Arc;

/// A scalar value expression inside a constructor (column reference,
/// literal, or concatenation — e.g. `e.fname || ' ' || e.lname`).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    /// Argument slot `i` of the data record.
    Column(usize),
    /// A string literal.
    Literal(String),
    /// Concatenation of parts.
    Concat(Vec<ValueExpr>),
}

/// A constructor-time attribute (`XMLATTRIBUTES(expr AS "name")`).
#[derive(Debug, Clone, PartialEq)]
pub struct CtorAttr {
    /// Attribute name.
    pub name: String,
    /// Value expression.
    pub value: ValueExpr,
}

/// A constructor expression (the nested SQL/XML functions).
#[derive(Debug, Clone, PartialEq)]
pub enum Ctor {
    /// `XMLELEMENT(NAME "n", XMLATTRIBUTES(...), content...)`.
    Element {
        /// Element name.
        name: String,
        /// Attributes.
        attrs: Vec<CtorAttr>,
        /// Child constructors.
        content: Vec<Ctor>,
    },
    /// `XMLFOREST(expr AS "name", ...)` — one element per named expression.
    Forest(Vec<(String, ValueExpr)>),
    /// A text node from a value expression.
    Text(ValueExpr),
    /// A comment node.
    Comment(ValueExpr),
}

// ---------------------------------------------------------------------------
// Template compilation
// ---------------------------------------------------------------------------

/// One piece of an interpolated value.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// Constant text.
    Const(String),
    /// The argument in slot `i` ("which argument to fill in", Fig. 5).
    Slot(usize),
}

/// One operation of a flattened tagging template.
#[derive(Debug, Clone, PartialEq)]
pub enum TOp {
    /// Open an element.
    Start(QNameId),
    /// Close the current element.
    End,
    /// Emit an attribute with interpolated value.
    Attr {
        /// Attribute name.
        name: QNameId,
        /// Value parts.
        parts: Vec<Part>,
    },
    /// Emit a text node with interpolated value.
    Text {
        /// Value parts.
        parts: Vec<Part>,
    },
    /// Emit a comment.
    Comment {
        /// Value parts.
        parts: Vec<Part>,
    },
}

/// A compiled tagging template: the shared, flattened structure of Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Flattened operations.
    pub ops: Vec<TOp>,
    /// Number of argument slots the data record must supply.
    pub slots: usize,
}

fn flatten_value(v: &ValueExpr, parts: &mut Vec<Part>, max_slot: &mut usize) {
    match v {
        ValueExpr::Column(i) => {
            *max_slot = (*max_slot).max(*i + 1);
            parts.push(Part::Slot(*i));
        }
        ValueExpr::Literal(s) => parts.push(Part::Const(s.clone())),
        ValueExpr::Concat(vs) => {
            for v in vs {
                flatten_value(v, parts, max_slot);
            }
        }
    }
}

impl Template {
    /// Flatten a constructor tree into a template (the §4.1 optimization:
    /// compiled once, shared by every row).
    pub fn compile(ctor: &Ctor, dict: &NameDict) -> Result<Arc<Template>> {
        let mut t = Template {
            ops: Vec::new(),
            slots: 0,
        };
        t.emit(ctor, dict)?;
        Ok(Arc::new(t))
    }

    fn emit(&mut self, ctor: &Ctor, dict: &NameDict) -> Result<()> {
        match ctor {
            Ctor::Element {
                name,
                attrs,
                content,
            } => {
                self.ops.push(TOp::Start(dict.intern("", "", name)));
                for a in attrs {
                    let mut parts = Vec::new();
                    flatten_value(&a.value, &mut parts, &mut self.slots);
                    self.ops.push(TOp::Attr {
                        name: dict.intern("", "", &a.name),
                        parts,
                    });
                }
                for c in content {
                    self.emit(c, dict)?;
                }
                self.ops.push(TOp::End);
            }
            Ctor::Forest(items) => {
                for (name, v) in items {
                    self.ops.push(TOp::Start(dict.intern("", "", name)));
                    let mut parts = Vec::new();
                    flatten_value(v, &mut parts, &mut self.slots);
                    self.ops.push(TOp::Text { parts });
                    self.ops.push(TOp::End);
                }
            }
            Ctor::Text(v) => {
                let mut parts = Vec::new();
                flatten_value(v, &mut parts, &mut self.slots);
                self.ops.push(TOp::Text { parts });
            }
            Ctor::Comment(v) => {
                let mut parts = Vec::new();
                flatten_value(v, &mut parts, &mut self.slots);
                self.ops.push(TOp::Comment { parts });
            }
        }
        Ok(())
    }
}

fn fill(parts: &[Part], args: &[String], out: &mut String) {
    for p in parts {
        match p {
            Part::Const(s) => out.push_str(s),
            Part::Slot(i) => out.push_str(args.get(*i).map_or("", String::as_str)),
        }
    }
}

/// The intermediate result of a constructor over one row: "a pointer to the
/// template with a data record" (Fig. 5 bottom). Replayable as virtual SAX
/// events, so it serializes / packs / scans through the shared §4.4 runtime
/// without ever materializing tags per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Constructed {
    /// The shared template.
    pub template: Arc<Template>,
    /// This row's argument values.
    pub args: Vec<String>,
}

impl Constructed {
    /// Build the intermediate form (no tag copying happens here).
    pub fn new(template: Arc<Template>, args: Vec<String>) -> Result<Constructed> {
        if args.len() < template.slots {
            return Err(EngineError::Invalid(format!(
                "template needs {} argument slots, got {}",
                template.slots,
                args.len()
            )));
        }
        Ok(Constructed { template, args })
    }

    /// Replay as events into any sink (serializer, packer, QuickXScan).
    pub fn replay(&self, sink: &mut dyn EventSink) -> Result<()> {
        let mut scratch = String::new();
        for op in &self.template.ops {
            match op {
                TOp::Start(name) => sink.event(Event::StartElement { name: *name })?,
                TOp::End => sink.event(Event::EndElement)?,
                TOp::Attr { name, parts } => {
                    scratch.clear();
                    fill(parts, &self.args, &mut scratch);
                    sink.event(Event::Attribute {
                        name: *name,
                        value: &scratch,
                        ann: TypeAnn::Untyped,
                    })?;
                }
                TOp::Text { parts } => {
                    scratch.clear();
                    fill(parts, &self.args, &mut scratch);
                    sink.event(Event::Text {
                        value: &scratch,
                        ann: TypeAnn::Untyped,
                    })?;
                }
                TOp::Comment { parts } => {
                    scratch.clear();
                    fill(parts, &self.args, &mut scratch);
                    sink.event(Event::Comment { value: &scratch })?;
                }
            }
        }
        Ok(())
    }

    /// Serialize to XML text.
    pub fn to_xml(&self, dict: &NameDict) -> Result<String> {
        let mut ser = rx_xml::Serializer::new(dict);
        self.replay(&mut ser)?;
        Ok(ser.finish())
    }
}

// ---------------------------------------------------------------------------
// XMLAGG with linked-list quicksort
// ---------------------------------------------------------------------------

/// A row of an XMLAGG group, kept on an intrusive singly-linked list (the
/// paper's "linked list representation of rows in each group").
struct AggRow {
    args: Vec<String>,
    /// Sort key extracted at append time.
    key: String,
    next: Option<Box<AggRow>>,
}

/// `XMLAGG(constructor ORDER BY slot)` over one group: rows share one
/// template; ORDER BY runs as an in-memory quicksort of the linked list.
pub struct XmlAgg {
    template: Arc<Template>,
    /// ORDER BY argument slot (`None` = input order) and descending flag.
    order_by: Option<(usize, bool)>,
    head: Option<Box<AggRow>>,
    len: usize,
}

impl XmlAgg {
    /// Start a group.
    pub fn new(template: Arc<Template>, order_by: Option<(usize, bool)>) -> XmlAgg {
        XmlAgg {
            template,
            order_by,
            head: None,
            len: 0,
        }
    }

    /// Append one row's argument record (O(1), no tag copying).
    pub fn push(&mut self, args: Vec<String>) {
        let key = match self.order_by {
            Some((slot, _)) => args.get(slot).cloned().unwrap_or_default(),
            None => String::new(),
        };
        let node = Box::new(AggRow {
            args,
            key,
            next: self.head.take(),
        });
        self.head = Some(node);
        self.len += 1;
    }

    /// Number of rows in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the group is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finish the group: sort (if ordered), returning the per-row
    /// intermediate results in final order.
    pub fn finish(mut self) -> Vec<Constructed> {
        // Rows were pushed onto the head: reverse to restore input order.
        let mut list = reverse(self.head.take());
        if let Some((_, desc)) = self.order_by {
            list = quicksort(list, desc);
        }
        let mut out = Vec::with_capacity(self.len);
        let mut cur = list;
        while let Some(mut n) = cur {
            cur = n.next.take();
            out.push(Constructed {
                template: Arc::clone(&self.template),
                args: n.args,
            });
        }
        out
    }

    /// Finish and serialize the whole aggregate to one XML string.
    pub fn finish_to_xml(self, dict: &NameDict) -> Result<String> {
        let items = self.finish();
        let mut ser = rx_xml::Serializer::new(dict);
        for item in &items {
            item.replay(&mut ser)?;
        }
        Ok(ser.finish())
    }
}

fn reverse(mut list: Option<Box<AggRow>>) -> Option<Box<AggRow>> {
    let mut prev = None;
    while let Some(mut n) = list {
        list = n.next.take();
        n.next = prev;
        prev = Some(n);
    }
    prev
}

/// In-memory quicksort on the linked list (§4.1). Three-way partition around
/// the head pivot (equal keys form the middle run, so duplicate-heavy XMLAGG
/// groups cost one partition per distinct key), O(1) splices via (head, tail)
/// pairs, and recursion only on the smaller side (the larger side continues
/// iteratively), bounding stack depth at O(log n). Rows never reallocate —
/// only `next` pointers move.
fn quicksort(list: Option<Box<AggRow>>, desc: bool) -> Option<Box<AggRow>> {
    type Chain = Option<(Box<AggRow>, *mut AggRow)>;

    fn concat(a: Chain, b: Chain) -> Chain {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some((ah, at)), Some((bh, bt))) => {
                unsafe {
                    (*at).next = Some(bh);
                }
                Some((ah, bt))
            }
        }
    }

    fn sort(mut list: Option<Box<AggRow>>, desc: bool) -> Chain {
        let mut prefix: Chain = None;
        let mut suffix: Chain = None;
        loop {
            let Some(mut pivot) = list else {
                return concat(prefix, suffix);
            };
            let mut rest = pivot.next.take();
            let mut less: Option<Box<AggRow>> = None;
            let mut greater: Option<Box<AggRow>> = None;
            let (mut n_less, mut n_greater) = (0usize, 0usize);
            let mut eq_tail: *mut AggRow = pivot.as_mut();
            while let Some(mut n) = rest {
                rest = n.next.take();
                let ord = if desc {
                    pivot.key.cmp(&n.key)
                } else {
                    n.key.cmp(&pivot.key)
                };
                match ord {
                    std::cmp::Ordering::Less => {
                        n.next = less;
                        less = Some(n);
                        n_less += 1;
                    }
                    std::cmp::Ordering::Equal => unsafe {
                        let raw = Box::into_raw(n);
                        (*eq_tail).next = Some(Box::from_raw(raw));
                        eq_tail = raw;
                    },
                    std::cmp::Ordering::Greater => {
                        n.next = greater;
                        greater = Some(n);
                        n_greater += 1;
                    }
                }
            }
            let run: Chain = Some((pivot, eq_tail));
            // Recurse into the smaller side; keep iterating on the larger.
            if n_less <= n_greater {
                let sorted_less = sort(less, desc);
                prefix = concat(prefix, concat(sorted_less, run));
                list = greater;
            } else {
                let sorted_greater = sort(greater, desc);
                suffix = concat(concat(run, sorted_greater), suffix);
                list = less;
            }
        }
    }

    sort(list, desc).map(|(head, _)| head)
}

/// The paper's running example (Fig. 5): builds
/// `XMLELEMENT(NAME "Emp", XMLATTRIBUTES($0 AS "id", $1||' '||$2 AS "name"),
///  XMLFOREST($3 AS "HIRE", $4 AS "department"))`.
pub fn fig5_emp_ctor() -> Ctor {
    Ctor::Element {
        name: "Emp".into(),
        attrs: vec![
            CtorAttr {
                name: "id".into(),
                value: ValueExpr::Column(0),
            },
            CtorAttr {
                name: "name".into(),
                value: ValueExpr::Concat(vec![
                    ValueExpr::Column(1),
                    ValueExpr::Literal(" ".into()),
                    ValueExpr::Column(2),
                ]),
            },
        ],
        content: vec![Ctor::Forest(vec![
            ("HIRE".into(), ValueExpr::Column(3)),
            ("department".into(), ValueExpr::Column(4)),
        ])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_args() -> Vec<String> {
        vec![
            "1234".into(),
            "John".into(),
            "Doe".into(),
            "2000-10-24".into(),
            "Accting".into(),
        ]
    }

    #[test]
    fn fig5_template_shape_and_output() {
        let dict = NameDict::new();
        let ctor = fig5_emp_ctor();
        let tpl = Template::compile(&ctor, &dict).unwrap();
        // Flattened: Start(Emp), Attr(id), Attr(name), Start(HIRE), Text,
        // End, Start(department), Text, End, End = 10 ops, 5 slots.
        assert_eq!(tpl.ops.len(), 10);
        assert_eq!(tpl.slots, 5);
        let c = Constructed::new(Arc::clone(&tpl), emp_args()).unwrap();
        assert_eq!(
            c.to_xml(&dict).unwrap(),
            r#"<Emp id="1234" name="John Doe"><HIRE>2000-10-24</HIRE><department>Accting</department></Emp>"#
        );
    }

    #[test]
    fn escaping_through_template() {
        let dict = NameDict::new();
        let ctor = Ctor::Element {
            name: "v".into(),
            attrs: vec![CtorAttr {
                name: "a".into(),
                value: ValueExpr::Column(0),
            }],
            content: vec![Ctor::Text(ValueExpr::Column(1))],
        };
        let tpl = Template::compile(&ctor, &dict).unwrap();
        let c = Constructed::new(tpl, vec![r#"x<"y"&z"#.into(), "a<b&c".into()]).unwrap();
        assert_eq!(
            c.to_xml(&dict).unwrap(),
            r#"<v a="x&lt;&quot;y&quot;&amp;z">a&lt;b&amp;c</v>"#
        );
    }

    #[test]
    fn missing_args_rejected() {
        let dict = NameDict::new();
        let tpl = Template::compile(&fig5_emp_ctor(), &dict).unwrap();
        assert!(Constructed::new(tpl, vec!["only-one".into()]).is_err());
    }

    #[test]
    fn xmlagg_preserves_input_order_without_order_by() {
        let dict = NameDict::new();
        let ctor = Ctor::Forest(vec![("v".into(), ValueExpr::Column(0))]);
        let tpl = Template::compile(&ctor, &dict).unwrap();
        let mut agg = XmlAgg::new(tpl, None);
        for v in ["c", "a", "b"] {
            agg.push(vec![v.to_string()]);
        }
        assert_eq!(agg.len(), 3);
        let xml = agg.finish_to_xml(&dict).unwrap();
        assert_eq!(xml, "<v>c</v><v>a</v><v>b</v>");
    }

    #[test]
    fn xmlagg_order_by_quicksort() {
        let dict = NameDict::new();
        let ctor = Ctor::Forest(vec![("v".into(), ValueExpr::Column(0))]);
        let tpl = Template::compile(&ctor, &dict).unwrap();
        let mut agg = XmlAgg::new(Arc::clone(&tpl), Some((0, false)));
        for v in ["pear", "apple", "mango", "fig", "apple"] {
            agg.push(vec![v.to_string()]);
        }
        let xml = agg.finish_to_xml(&dict).unwrap();
        assert_eq!(
            xml,
            "<v>apple</v><v>apple</v><v>fig</v><v>mango</v><v>pear</v>"
        );
        // Descending.
        let mut agg = XmlAgg::new(tpl, Some((0, true)));
        for v in ["b", "c", "a"] {
            agg.push(vec![v.to_string()]);
        }
        assert_eq!(
            agg.finish_to_xml(&dict).unwrap(),
            "<v>c</v><v>b</v><v>a</v>"
        );
    }

    #[test]
    fn quicksort_handles_large_groups() {
        let dict = NameDict::new();
        let ctor = Ctor::Forest(vec![("n".into(), ValueExpr::Column(0))]);
        let tpl = Template::compile(&ctor, &dict).unwrap();
        let mut agg = XmlAgg::new(tpl, Some((0, false)));
        // Zero-padded numbers sort lexicographically = numerically.
        let n = 2000;
        for i in 0..n {
            agg.push(vec![format!("{:05}", (i * 7919) % n)]);
        }
        let items = agg.finish();
        assert_eq!(items.len(), n);
        for w in items.windows(2) {
            assert!(w[0].args[0] <= w[1].args[0]);
        }
    }

    #[test]
    fn constructed_feeds_quickxscan() {
        // The intermediate form replays into the shared runtime: evaluate an
        // XPath over constructed (never-serialized) data.
        let dict = NameDict::new();
        let tpl = Template::compile(&fig5_emp_ctor(), &dict).unwrap();
        let c = Constructed::new(tpl, emp_args()).unwrap();
        let path = rx_xpath::XPathParser::new()
            .parse("/Emp/department")
            .unwrap();
        let tree = rx_xpath::QueryTree::compile(&path).unwrap();
        let mut scan = rx_xpath::QuickXScan::new(&tree, &dict);
        scan.event(Event::StartDocument).unwrap();
        c.replay(&mut scan).unwrap();
        scan.event(Event::EndDocument).unwrap();
        let items = scan.finish().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].value, "Accting");
    }
}
