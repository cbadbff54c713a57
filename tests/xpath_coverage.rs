//! Broader XPath coverage over *stored* documents: namespaces, wildcards,
//! kind tests, operand-chain predicates, and stress shapes — each checked
//! against the DOM reference evaluator.

use rx_bench::baseline::DomXPath;
use rx_bench::run_plan;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::AccessPlan;
use system_rx::xml::dom::DomTree;
use system_rx::xml::NameDict;
use system_rx::xpath::{QueryTree, XPathParser};

/// Evaluate `query` over `doc` through the full storage path AND through the
/// DOM reference; both must agree.
fn check(doc: &str, query: &str, parser: &XPathParser) -> Vec<String> {
    let path = parser.parse(query).unwrap();
    // Stored path (multi-record packing).
    let db = Database::create_in_memory_with(DbConfig {
        target_record_size: 256,
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    db.insert_row(&t, &[ColValue::Xml(doc.to_string())])
        .unwrap();
    let col = t.xml_column("doc").unwrap();
    let (hits, _) = run_plan(&db, &AccessPlan::FullScan, &t, col, &path);
    let stored: Vec<String> = hits.into_iter().map(|h| h.value).collect();
    // DOM reference.
    let dict = NameDict::new();
    let tree = QueryTree::compile(&path).unwrap();
    let dom = DomTree::parse(doc, &dict).unwrap();
    let reference = DomXPath::new(&tree, &dict).eval(&dom);
    assert_eq!(stored, reference, "query {query} over {doc}");
    stored
}

#[test]
fn namespace_qualified_queries() {
    let parser = XPathParser::new()
        .with_namespace("c", "urn:catalog")
        .with_namespace("v", "urn:vendor");
    let doc = r#"<c:cat xmlns:c="urn:catalog" xmlns:v="urn:vendor">
        <c:item><v:price>10</v:price></c:item>
        <c:item><v:price>20</v:price></c:item>
        <other xmlns="urn:other"><v:price>99</v:price></other>
    </c:cat>"#;
    assert_eq!(check(doc, "//v:price", &parser), vec!["10", "20", "99"]);
    assert_eq!(
        check(doc, "/c:cat/c:item/v:price", &parser),
        vec!["10", "20"]
    );
    // Unqualified local-name match crosses namespaces.
    let plain = XPathParser::new();
    assert_eq!(check(doc, "//price", &plain).len(), 3);
    // Wrong namespace yields nothing.
    let wrong = XPathParser::new().with_namespace("v", "urn:nope");
    assert!(check(doc, "//v:price", &wrong).is_empty());
}

#[test]
fn attribute_wildcards_and_kind_tests() {
    let parser = XPathParser::new();
    let doc = r#"<r><p a="1" b="2"/><q c="3"/><!--note--><p/>text</r>"#;
    assert_eq!(check(doc, "/r/p/@*", &parser), vec!["1", "2"]);
    assert_eq!(check(doc, "//@*", &parser).len(), 3);
    assert_eq!(check(doc, "//comment()", &parser), vec!["note"]);
    assert_eq!(check(doc, "/r/text()", &parser), vec!["text"]);
    assert_eq!(check(doc, "/r/*", &parser).len(), 3);
}

#[test]
fn deep_operand_chains() {
    let parser = XPathParser::new();
    let doc = r#"<shop>
        <order><lines><line><sku>A</sku><qty>5</qty></line>
                      <line><sku>B</sku><qty>1</qty></line></lines></order>
        <order><lines><line><sku>C</sku><qty>9</qty></line></lines></order>
    </shop>"#;
    // Predicate path three steps deep.
    assert_eq!(
        check(doc, "/shop/order[lines/line/qty > 4]", &parser).len(),
        2
    );
    assert_eq!(
        check(doc, "/shop/order[lines/line/sku = 'B']", &parser).len(),
        1
    );
    // Descendant operand inside predicate.
    assert_eq!(check(doc, "//order[.//qty = 9]//sku", &parser), vec!["C"]);
    // Nested predicates on the operand chain.
    assert_eq!(
        check(doc, "//order[lines/line[qty > 4]/sku = 'A']", &parser).len(),
        1
    );
}

#[test]
fn mixed_boolean_and_count() {
    let parser = XPathParser::new();
    let doc = r#"<r>
        <g><m/><m/><m/></g>
        <g><m/><n/></g>
        <g><n/></g>
    </r>"#;
    assert_eq!(check(doc, "/r/g[count(m) >= 2]", &parser).len(), 1);
    assert_eq!(check(doc, "/r/g[m and n]", &parser).len(), 1);
    assert_eq!(check(doc, "/r/g[m or n]", &parser).len(), 3);
    assert_eq!(check(doc, "/r/g[not(m) and n]", &parser).len(), 1);
    assert_eq!(check(doc, "/r/g[not(m or n)]", &parser).len(), 0);
    assert_eq!(check(doc, "/r/g[count(m) = count(n)]", &parser).len(), 1);
}

#[test]
fn parent_axis_rewrites_over_storage() {
    let parser = XPathParser::new();
    let doc = "<r><a><b/><c>keep</c></a><a><c>skip</c></a></r>";
    // a/b/.. == a[b]: only the first <a> has a <b>.
    assert_eq!(check(doc, "/r/a/b/../c", &parser), vec!["keep"]);
}

#[test]
fn wide_and_deep_stress() {
    let parser = XPathParser::new();
    // Wide: 300 siblings (forces proxy spill at target 256).
    let wide = format!(
        "<r>{}</r>",
        (0..300)
            .map(|i| format!("<i v=\"{i}\"><x>{}</x></i>", i % 7))
            .collect::<String>()
    );
    assert_eq!(check(&wide, "//i[x = 3]", &parser).len(), 43);
    assert_eq!(check(&wide, "//i/@v", &parser).len(), 300);
    // Deep: 60-level chain.
    let mut deep = String::new();
    for _ in 0..60 {
        deep.push_str("<d>");
    }
    deep.push_str("bottom");
    for _ in 0..60 {
        deep.push_str("</d>");
    }
    assert_eq!(check(&deep, "//d[not(d)]", &parser), vec!["bottom"]);
    assert_eq!(check(&deep, "//d", &parser).len(), 60);
}

#[test]
fn whitespace_and_entities_survive() {
    let parser = XPathParser::new();
    let doc = r#"<r><v>a &amp; b</v><v>&lt;tag&gt;</v></r>"#;
    assert_eq!(check(doc, "/r/v", &parser), vec!["a & b", "<tag>"]);
    assert_eq!(check(doc, "/r/v[. = 'a & b']", &parser).len(), 1);
}

#[test]
fn numeric_comparison_edge_cases() {
    let parser = XPathParser::new();
    let doc = r#"<r><v>10</v><v>9.5</v><v>-3</v><v>abc</v><v>0</v></r>"#;
    assert_eq!(check(doc, "/r/v[. > 9]", &parser).len(), 2);
    assert_eq!(check(doc, "/r/v[. < 0]", &parser), vec!["-3"]);
    // Non-numeric text never satisfies an ordering comparison.
    assert_eq!(check(doc, "/r/v[. >= -1000]", &parser).len(), 4);
    assert_eq!(check(doc, "/r/v[. = 0]", &parser), vec!["0"]);
}
