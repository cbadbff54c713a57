//! XQuery-lite: FLWOR expressions over stored XML.
//!
//! §6 lists "more complete XQuery" as future work; this module grows the
//! engine one step in that direction with the data-centric FLWOR core:
//!
//! ```text
//! for $v in <absolute path>
//! [where <predicate on $v>]
//! [order by $v/<relative path> [descending]]
//! return <element>{ $v/<relative path> | 'literal' | nested element }</element>
//! ```
//!
//! Everything reuses the machinery the paper describes: the `for` clause is
//! an XPath evaluated through the §4.3 access-path selection (so an indexed
//! predicate in the binding path uses DocID/NodeID lists), `where` folds into
//! the binding path as a predicate, and `return` writes each binding's
//! result straight into a `Serializer`: constructors and literals as events,
//! `{ $v }` as a replay of the bound subtree, and `$v/...` projections as
//! the string values QuickXScan finds in that replay (§4.4 deferred access:
//! only matched subtrees are fetched). Each distinct projection path is
//! compiled once per FLWOR.

use crate::db::{BaseTable, Database, XmlColumn};
use crate::error::{EngineError, Result};
use crate::traverse::Traverser;
use crate::xmltable::DocId;
use rx_storage::Txn;
use rx_xml::event::{Event, EventSink};
use rx_xml::nodeid::NodeId;
use rx_xml::value::TypeAnn;
use rx_xml::NameDict;
use rx_xpath::ast::{Expr, Path, Step};
use rx_xpath::quickxscan::QuickXScan;
use rx_xpath::{QueryTree, XPathParser};
use std::sync::Arc;

/// One item of the `return` clause's content.
#[derive(Debug, Clone, PartialEq)]
pub enum RetItem {
    /// A literal text chunk.
    Literal(String),
    /// `{ $v }` or `{ $v/rel/path }`: project the binding (string values,
    /// concatenated in document order).
    VarPath(Path),
    /// A nested element constructor.
    Element {
        /// Element name.
        name: String,
        /// Content items.
        content: Vec<RetItem>,
    },
}

/// A parsed FLWOR expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Flwor {
    /// Binding variable name (without `$`).
    pub var: String,
    /// Absolute binding path (with the folded `where` predicate).
    pub binding: Path,
    /// Optional order-by: relative path + descending flag.
    pub order_by: Option<(Path, bool)>,
    /// Return-clause template.
    pub ret: Vec<RetItem>,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cur<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cur<'a> {
    fn ws(&mut self) {
        while self.s[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        self.ws();
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, word: &str) -> Result<()> {
        if self.eat(word) {
            Ok(())
        } else {
            Err(EngineError::Invalid(format!(
                "expected {word:?} at …{}",
                &self.s[self.pos..self.pos.saturating_add(30).min(self.s.len())]
            )))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.ws();
        let start = self.pos;
        while self.s[self.pos..].starts_with(|c: char| c.is_alphanumeric() || c == '_' || c == '-')
        {
            self.pos += self.s[self.pos..].chars().next().unwrap().len_utf8();
        }
        if self.pos == start {
            return Err(EngineError::Invalid(format!(
                "expected an identifier at …{}",
                &self.s[start..start.saturating_add(20).min(self.s.len())]
            )));
        }
        Ok(&self.s[start..self.pos])
    }

    /// Consume up to (not including) any of the given top-level keywords.
    fn until_keyword(&mut self, keywords: &[&str]) -> &'a str {
        self.ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        while self.pos < self.s.len() {
            let rest = &self.s[self.pos..];
            if keywords.iter().any(|k| {
                rest.starts_with(k) && (self.pos == 0 || bytes[self.pos - 1].is_ascii_whitespace())
            }) {
                break;
            }
            self.pos += rest.chars().next().unwrap().len_utf8();
        }
        self.s[start..self.pos].trim()
    }
}

/// Parse a FLWOR expression. The `where` clause must reference the binding
/// variable (`$v/...` comparisons) and folds into the binding path.
pub fn parse_flwor(input: &str, xpath: &XPathParser) -> Result<Flwor> {
    let mut c = Cur { s: input, pos: 0 };
    c.expect("for")?;
    c.expect("$")?;
    let var = c.ident()?.to_string();
    c.expect("in")?;
    let binding_text = c.until_keyword(&["where", "order", "return"]);
    let mut binding = xpath.parse(binding_text)?;

    // where: rewrite `$v/rel op lit` into a predicate on the last step.
    c.ws();
    if c.eat("where") {
        let cond_text = c.until_keyword(&["order", "return"]);
        let pred = parse_condition(cond_text, &var, xpath)?;
        let last = binding
            .steps
            .last_mut()
            .ok_or_else(|| EngineError::Invalid("binding path needs at least one step".into()))?;
        last.predicates.push(pred);
    }

    c.ws();
    let order_by = if c.eat("order") {
        c.expect("by")?;
        let ob_text = c.until_keyword(&["return"]);
        let (path_text, desc) = match ob_text.strip_suffix("descending") {
            Some(p) => (p.trim(), true),
            None => (
                ob_text.strip_suffix("ascending").unwrap_or(ob_text).trim(),
                false,
            ),
        };
        Some((var_relative_path(path_text, &var, xpath)?, desc))
    } else {
        None
    };

    c.expect("return")?;
    c.ws();
    let ret = parse_return(&mut c, &var, xpath)?;
    c.ws();
    if c.pos != c.s.len() {
        return Err(EngineError::Invalid(format!(
            "trailing input after return clause: {:?}",
            &c.s[c.pos..]
        )));
    }
    Ok(Flwor {
        var,
        binding,
        order_by,
        ret,
    })
}

/// `$v/rel/path` → relative Path; bare `$v` → empty relative path (self).
fn var_relative_path(text: &str, var: &str, xpath: &XPathParser) -> Result<Path> {
    let t = text.trim();
    let prefix = format!("${var}");
    let Some(rest) = t.strip_prefix(&prefix) else {
        return Err(EngineError::Invalid(format!("expected ${var}/… in {t:?}")));
    };
    let rest = rest.trim();
    if rest.is_empty() {
        // Self: model as `.` — empty steps.
        return Ok(Path {
            absolute: false,
            steps: Vec::new(),
        });
    }
    let rel = rest
        .strip_prefix('/')
        .ok_or_else(|| EngineError::Invalid(format!("expected a path after ${var} in {t:?}")))?;
    let parsed = xpath.parse(&format!("/{rel}"))?;
    Ok(Path {
        absolute: false,
        steps: parsed.steps,
    })
}

/// Parse `$v/rel op literal` (or a bare `$v/rel` existence test) as an XPath
/// predicate expression relative to the binding.
fn parse_condition(text: &str, var: &str, xpath: &XPathParser) -> Result<Expr> {
    // Replace the `$v` reference with `.` and parse as a predicate body.
    let prefix = format!("${var}/");
    let rewritten = if text.trim().starts_with(&prefix) {
        text.trim().replacen(&prefix, "", 1)
    } else {
        return Err(EngineError::Invalid(format!(
            "where clause must start with ${var}/…, got {text:?}"
        )));
    };
    // Wrap as a predicate: parse `/x[ <rewritten> ]` and pull the predicate.
    let probe = format!("/x[{rewritten}]");
    let parsed = xpath.parse(&probe)?;
    let step = parsed
        .steps
        .first()
        .ok_or_else(|| EngineError::Invalid("empty where clause".into()))?;
    step.predicates
        .first()
        .cloned()
        .ok_or_else(|| EngineError::Invalid("empty where clause".into()))
}

fn parse_return(c: &mut Cur<'_>, var: &str, xpath: &XPathParser) -> Result<Vec<RetItem>> {
    // Either one element constructor or a single { $v/... } projection.
    c.ws();
    if c.s[c.pos..].starts_with('<') {
        Ok(vec![parse_elem(c, var, xpath)?])
    } else if c.s[c.pos..].starts_with('{') {
        Ok(vec![parse_brace(c, var, xpath)?])
    } else {
        Err(EngineError::Invalid(
            "return clause must be an element constructor or a { … } projection".into(),
        ))
    }
}

fn parse_brace(c: &mut Cur<'_>, var: &str, xpath: &XPathParser) -> Result<RetItem> {
    c.expect("{")?;
    c.ws();
    let inner_start = c.pos;
    while c.pos < c.s.len() && !c.s[c.pos..].starts_with('}') {
        c.pos += c.s[c.pos..].chars().next().unwrap().len_utf8();
    }
    let inner = c.s[inner_start..c.pos].trim().to_string();
    c.expect("}")?;
    Ok(RetItem::VarPath(var_relative_path(&inner, var, xpath)?))
}

fn parse_elem(c: &mut Cur<'_>, var: &str, xpath: &XPathParser) -> Result<RetItem> {
    c.expect("<")?;
    let name = c.ident()?.to_string();
    c.expect(">")?;
    let mut content = Vec::new();
    loop {
        c.ws();
        if c.s[c.pos..].starts_with("</") {
            break;
        }
        if c.s[c.pos..].starts_with('<') {
            content.push(parse_elem(c, var, xpath)?);
        } else if c.s[c.pos..].starts_with('{') {
            content.push(parse_brace(c, var, xpath)?);
        } else {
            // Literal run until '<' or '{'.
            let start = c.pos;
            while c.pos < c.s.len()
                && !c.s[c.pos..].starts_with('<')
                && !c.s[c.pos..].starts_with('{')
            {
                c.pos += c.s[c.pos..].chars().next().unwrap().len_utf8();
            }
            let lit = &c.s[start..c.pos];
            if !lit.trim().is_empty() {
                content.push(RetItem::Literal(lit.trim().to_string()));
            }
        }
    }
    c.expect("</")?;
    let close = c.ident()?;
    if close != name {
        return Err(EngineError::Invalid(format!(
            "constructor end tag </{close}> does not match <{name}>"
        )));
    }
    c.expect(">")?;
    Ok(RetItem::Element { name, content })
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Execute a FLWOR over one XML column in `txn`, returning one serialized
/// XML string per binding (in binding order, or `order by` order).
pub fn execute_flwor(
    db: &Arc<Database>,
    txn: &Txn,
    table: &Arc<BaseTable>,
    column: &Arc<XmlColumn>,
    flwor: &Flwor,
) -> Result<Vec<String>> {
    let dict = db.dict();
    // The for clause goes through access-path selection (§4.3) and the
    // plan cache; it S-locks every document it binds in, so the
    // projections below read locked documents only.
    let (hits, _) = db.query_locked(txn, table, column, &flwor.binding, false)?;
    let projections = Projections::compile(flwor)?;

    // Evaluate order-by keys and sort bindings.
    let mut bindings: Vec<(DocId, NodeId, String)> = Vec::with_capacity(hits.len());
    for h in hits {
        let Some(node) = h.node else { continue };
        let key = match &flwor.order_by {
            Some((rel, _)) => projections.run(column, dict, h.doc, &node, rel)?.join(""),
            None => String::new(),
        };
        bindings.push((h.doc, node, key));
    }
    if let Some((_, desc)) = &flwor.order_by {
        bindings.sort_by(|a, b| if *desc { b.2.cmp(&a.2) } else { a.2.cmp(&b.2) });
    }

    // Render the return clause per binding.
    let mut out = Vec::with_capacity(bindings.len());
    for (doc, node, _) in &bindings {
        let mut ser = rx_xml::Serializer::new(dict);
        for item in &flwor.ret {
            render(&projections, column, dict, *doc, node, item, &mut ser)?;
        }
        out.push(ser.finish());
    }
    Ok(out)
}

fn render(
    projections: &Projections<'_>,
    column: &Arc<XmlColumn>,
    dict: &NameDict,
    doc: DocId,
    node: &NodeId,
    item: &RetItem,
    sink: &mut dyn EventSink,
) -> Result<()> {
    match item {
        RetItem::Literal(s) => sink.event(Event::Text {
            value: s,
            ann: TypeAnn::Untyped,
        })?,
        RetItem::Element { name, content } => {
            let qn = dict.intern("", "", name);
            sink.event(Event::StartElement { name: qn })?;
            for c in content {
                render(projections, column, dict, doc, node, c, sink)?;
            }
            sink.event(Event::EndElement)?;
        }
        RetItem::VarPath(rel) => {
            if rel.steps.is_empty() {
                // `{ $v }`: replay the whole bound subtree (deferred fetch).
                let mut t = Traverser::new(column.xml_table(), doc);
                let mut adapter = crate::traverse::DropIds(sink);
                t.run_subtree(node, &mut adapter)?;
            } else {
                for v in projections.run(column, dict, doc, node, rel)? {
                    sink.event(Event::Text {
                        value: &v,
                        ann: TypeAnn::Untyped,
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// The compiled relative paths of one FLWOR: one query tree per distinct
/// `order by` or `{ $v/path }` path, each re-anchored under `/*` (the bound
/// subtree's root is the single top-level element of its replay).
struct Projections<'f> {
    trees: Vec<(&'f Path, QueryTree)>,
}

impl<'f> Projections<'f> {
    fn compile(flwor: &'f Flwor) -> Result<Self> {
        fn collect<'f>(items: &'f [RetItem], paths: &mut Vec<&'f Path>) {
            for item in items {
                match item {
                    RetItem::VarPath(rel) if !rel.steps.is_empty() => paths.push(rel),
                    RetItem::Element { content, .. } => collect(content, paths),
                    _ => {}
                }
            }
        }
        let mut paths: Vec<&Path> = flwor.order_by.iter().map(|(rel, _)| rel).collect();
        collect(&flwor.ret, &mut paths);
        let mut trees: Vec<(&Path, QueryTree)> = Vec::new();
        for rel in paths {
            if trees.iter().any(|(p, _)| *p == rel) {
                continue;
            }
            let mut steps = vec![Step {
                axis: rx_xpath::Axis::Child,
                test: rx_xpath::NodeTest::AnyName,
                predicates: Vec::new(),
            }];
            steps.extend(rel.steps.iter().cloned());
            let abs = Path {
                absolute: true,
                steps,
            };
            trees.push((rel, QueryTree::compile(&abs)?));
        }
        Ok(Projections { trees })
    }

    /// Evaluate `rel` against the subtree rooted at `node`: replay the
    /// subtree as if its root were the document root and run QuickXScan
    /// with `rel`'s compiled tree.
    fn run(
        &self,
        column: &Arc<XmlColumn>,
        dict: &NameDict,
        doc: DocId,
        node: &NodeId,
        rel: &Path,
    ) -> Result<Vec<String>> {
        let (_, tree) = self
            .trees
            .iter()
            .find(|(p, _)| *p == rel)
            .expect("every projection path is compiled up front");
        let mut scan = QuickXScan::new(tree, dict);
        scan.event(Event::StartDocument)?;
        Traverser::new(column.xml_table(), doc).run_subtree(node, &mut scan)?;
        scan.event(Event::EndDocument)?;
        let items = scan.finish()?;
        Ok(items.into_iter().map(|i| i.value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access;
    use crate::db::{ColValue, ColumnKind};
    use rx_xml::value::KeyType;

    /// Run `f` in a transaction of its own.
    fn run(db: &Arc<Database>, t: &Arc<BaseTable>, col: &Arc<XmlColumn>, f: &Flwor) -> Vec<String> {
        let txn = db.begin().unwrap();
        let out = execute_flwor(db, &txn, t, col, f).unwrap();
        txn.commit().unwrap();
        out
    }

    fn setup() -> (Arc<Database>, Arc<BaseTable>, Arc<XmlColumn>, XPathParser) {
        let db = Database::create_in_memory().unwrap();
        let t = db.create_table("c", &[("doc", ColumnKind::Xml)]).unwrap();
        db.create_value_index(
            "c",
            "price",
            "doc",
            "/Catalog/Product/RegPrice",
            KeyType::Double,
        )
        .unwrap();
        for (name, price) in [("Widget", 10.0), ("Gadget", 150.0), ("Gizmo", 90.0)] {
            db.insert_row(
                &t,
                &[ColValue::Xml(format!(
                    "<Catalog><Product><ProductName>{name}</ProductName>\
                     <RegPrice>{price}</RegPrice></Product></Catalog>"
                ))],
            )
            .unwrap();
        }
        let col = Arc::clone(t.xml_column("doc").unwrap());
        (db, t, col, XPathParser::new())
    }

    #[test]
    fn basic_for_return() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product return <name>{ $p/ProductName }</name>",
            &xp,
        )
        .unwrap();
        let out = run(&db, &t, &col, &f);
        assert_eq!(
            out,
            vec![
                "<name>Widget</name>",
                "<name>Gadget</name>",
                "<name>Gizmo</name>"
            ]
        );
    }

    #[test]
    fn where_clause_uses_index_plan() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product where $p/RegPrice > 50 \
             return <hit>{ $p/ProductName }</hit>",
            &xp,
        )
        .unwrap();
        // The folded predicate is plannable against the price index.
        let plan = access::plan(&f.binding, &col, false);
        assert!(
            plan.explain().contains("DocID list access"),
            "{}",
            plan.explain()
        );
        let out = run(&db, &t, &col, &f);
        assert_eq!(out, vec!["<hit>Gadget</hit>", "<hit>Gizmo</hit>"]);
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product order by $p/ProductName \
             return <n>{ $p/ProductName }</n>",
            &xp,
        )
        .unwrap();
        let out = run(&db, &t, &col, &f);
        assert_eq!(out, vec!["<n>Gadget</n>", "<n>Gizmo</n>", "<n>Widget</n>"]);
        let f = parse_flwor(
            "for $p in /Catalog/Product order by $p/ProductName descending \
             return <n>{ $p/ProductName }</n>",
            &xp,
        )
        .unwrap();
        let out = run(&db, &t, &col, &f);
        assert_eq!(out[0], "<n>Widget</n>");
    }

    /// `order by` and `return` share one compiled tree per distinct path.
    #[test]
    fn each_distinct_projection_path_compiles_once() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product order by $p/ProductName \
             return <p><n>{ $p/ProductName }</n>{ $p/RegPrice }{ $p }\
             <again>{ $p/ProductName }</again></p>",
            &xp,
        )
        .unwrap();
        assert_eq!(Projections::compile(&f).unwrap().trees.len(), 2);
        let out = run(&db, &t, &col, &f);
        assert_eq!(out.len(), 3);
        assert!(
            out[0].starts_with("<p><n>Gadget</n>150<Product>"),
            "{}",
            out[0]
        );
        assert!(out[0].ends_with("</Product><again>Gadget</again></p>"));
    }

    #[test]
    fn nested_constructors_and_literals() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product where $p/RegPrice > 100 \
             return <offer><title>SALE: { $p/ProductName }</title>\
             <was>{ $p/RegPrice }</was></offer>",
            &xp,
        )
        .unwrap();
        let out = run(&db, &t, &col, &f);
        assert_eq!(
            out,
            vec!["<offer><title>SALE:Gadget</title><was>150</was></offer>"]
        );
    }

    #[test]
    fn whole_binding_projection() {
        let (db, t, col, xp) = setup();
        let f = parse_flwor(
            "for $p in /Catalog/Product where $p/RegPrice > 100 \
             return <wrap>{ $p }</wrap>",
            &xp,
        )
        .unwrap();
        let out = run(&db, &t, &col, &f);
        assert_eq!(
            out,
            vec![
                "<wrap><Product><ProductName>Gadget</ProductName>\
                 <RegPrice>150</RegPrice></Product></wrap>"
            ]
        );
    }

    #[test]
    fn parse_errors() {
        let xp = XPathParser::new();
        assert!(parse_flwor("for p in /a return <x></x>", &xp).is_err());
        assert!(parse_flwor("for $p in /a", &xp).is_err());
        assert!(parse_flwor("for $p in /a return <x></y>", &xp).is_err());
        assert!(parse_flwor("for $p in /a where q/z > 1 return <x></x>", &xp).is_err());
    }
}
