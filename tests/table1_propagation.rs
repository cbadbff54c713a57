//! Table 1 (§4.2): the four propagation scenarios for sequence-valued
//! attributes, verified end-to-end through the *stored-data* path (parse →
//! pack → store → traverse → QuickXScan), not just in-memory streams.
//! Each scenario checks completeness (every expected node appears) and the
//! duplicate-freedom the upward/sideways rules guarantee.

use rx_bench::run_plan;
use system_rx::engine::db::{ColValue, ColumnKind, Database, DbConfig};
use system_rx::engine::AccessPlan;
use system_rx::xpath::XPathParser;

fn run_stored(doc: &str, query: &str) -> Vec<String> {
    // A tiny packing target forces multi-record storage, so propagation also
    // crosses record boundaries.
    let db = Database::create_in_memory_with(DbConfig {
        target_record_size: 192,
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", &[("doc", ColumnKind::Xml)]).unwrap();
    db.insert_row(&t, &[ColValue::Xml(doc.to_string())])
        .unwrap();
    let col = t.xml_column("doc").unwrap();
    let path = XPathParser::new().parse(query).unwrap();
    let (hits, _) = run_plan(&db, &AccessPlan::FullScan, &t, col, &path);
    hits.into_iter().map(|h| h.value).collect()
}

/// Table 1 row 1 — path `a/b`, single `a`: `s1 := s1 ∪ {b}` upward on each
/// b's end.
#[test]
fn row1_child_axis_single_a() {
    let doc = "<r><a><b>1</b><x/><b>2</b><b>3</b></a></r>";
    assert_eq!(run_stored(doc, "//a/b"), vec!["1", "2", "3"]);
    // The sequence drives the parent's predicate exactly once per value.
    assert_eq!(run_stored(doc, "/r/a[count(b) = 3]").len(), 1);
}

/// Table 1 row 2 — path `a/b` with nested `a` instances: each instance
/// accumulates only its own children ("no sideways propagation for s").
#[test]
fn row2_child_axis_nested_as() {
    let doc = "<r><a><b>outer</b><a><b>inner1</b><b>inner2</b></a></a></r>";
    // Both a's match //a/b; values must not leak across instances.
    assert_eq!(run_stored(doc, "//a/b"), vec!["outer", "inner1", "inner2"]);
    assert_eq!(
        run_stored(doc, "//a[count(b) = 2]/b"),
        vec!["inner1", "inner2"]
    );
    assert_eq!(run_stored(doc, "//a[count(b) = 1]/b"), vec!["outer"]);
    // The outer a must NOT see the inner b's as its own children.
    assert!(run_stored(doc, "//a[count(b) = 3]").is_empty());
}

/// Table 1 row 3 — path `a//b`, single `a`, nested `b`s: descendant-or-self
/// sequences merge sideways between nested b instances, then upward into a.
#[test]
fn row3_descendant_axis_nested_bs() {
    let doc = "<r><a><b>o<b>i1</b></b><b>s</b></a></r>";
    // All three b's are descendants of a, each exactly once.
    let got = run_stored(doc, "//a//b");
    assert_eq!(got.len(), 3, "{got:?}");
    assert_eq!(run_stored(doc, "//a[count(.//b) = 3]").len(), 1);
}

/// Table 1 row 4 — path `a//b` with nested `a`s: the inner a's descendant
/// sequence propagates sideways into the outer a's ("At end of a2:
/// s1 = s1 ∪ s2"), so both instances see the deep b, each exactly once.
#[test]
fn row4_descendant_axis_nested_as() {
    let doc = "<r><a><a><b>deep</b></a></a></r>";
    // Both a instances qualify; the b value reaches each exactly once.
    assert_eq!(run_stored(doc, "//a[.//b = 'deep']").len(), 2);
    assert_eq!(run_stored(doc, "//a[count(.//b) = 1]").len(), 2);
    // The result sequence //a//b is still duplicate-free.
    assert_eq!(run_stored(doc, "//a//b"), vec!["deep"]);
}

/// The combined worst case: deep same-name recursion with both child and
/// descendant predicates, across record boundaries.
#[test]
fn combined_recursion_duplicate_freedom() {
    let mut doc = String::from("<r>");
    for i in 0..8 {
        doc.push_str(&format!("<a><m>{i}</m>"));
    }
    doc.push_str("<b>core</b>");
    for _ in 0..8 {
        doc.push_str("</a>");
    }
    doc.push_str("</r>");
    // Every a sees the single b below it exactly once.
    assert_eq!(run_stored(&doc, "//a[count(.//b) = 1]").len(), 8);
    // //a//b yields exactly one result.
    assert_eq!(run_stored(&doc, "//a//b"), vec!["core"]);
    // //a//m: m_i is a descendant of a_0..a_i (i+1 ancestors), but the
    // result sequence lists each m exactly once.
    let ms = run_stored(&doc, "//a//m");
    assert_eq!(ms.len(), 8, "{ms:?}");
    let mut dedup = ms.clone();
    dedup.dedup();
    assert_eq!(dedup.len(), 8, "no duplicates: {ms:?}");
}

/// The paper's own Fig. 6 query over stored data.
#[test]
fn fig6_query_on_stored_documents() {
    let doc = r#"<r><s><p><t>XML</t></p><f w="400"/><tag>hit</tag></s>
                  <s><t>XML</t><f w="100"/><tag>low-w</tag></s>
                  <s><f w="999"/><tag>no-t</tag></s></r>"#;
    let got = run_stored(doc, r#"//s[.//t = "XML" and f/@w > 300]/tag"#);
    assert_eq!(got, vec!["hit"]);
}
