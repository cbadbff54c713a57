//! QuickXScan in isolation (§4.2): streaming XPath over generated documents,
//! compared against the DOM-based evaluator and the naive per-instance
//! streaming matcher — including the Fig. 7 state-count blowup on recursive
//! documents.
//!
//! Run with: `cargo run --release --example streaming_xpath`

use rx_bench::baseline::{DomXPath, NaiveStreamMatcher};
use std::time::Instant;
use system_rx::gen::{bom_doc, recursive_doc, sized_tree};
use system_rx::xml::dom::DomTree;
use system_rx::xml::NameDict;
use system_rx::xpath::quickxscan::scan_str;
use system_rx::xpath::{QueryTree, XPathParser};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dict = NameDict::new();

    // --- Linearity in document size (the §4.2 design goal) ----------------
    println!("QuickXScan elapsed time vs document size (query //item[entry]):");
    let path = XPathParser::new().parse("//item[entry]")?;
    let tree = QueryTree::compile(&path)?;
    for nodes in [1_000usize, 10_000, 100_000] {
        let doc = sized_tree(nodes, 4, 16, 7);
        let t = Instant::now();
        let (hits, stats) = scan_str(&tree, &dict, &doc)?;
        println!(
            "  {:>7} nodes ({:>8} bytes): {:>10.2?}  hits={} peak-instances={}",
            nodes,
            doc.len(),
            t.elapsed(),
            hits.len(),
            stats.peak_instances
        );
    }

    // --- QuickXScan vs DOM-based evaluation -------------------------------
    println!("\nQuickXScan vs DOM (build tree, then evaluate) on 100k nodes:");
    let doc = sized_tree(100_000, 4, 16, 7);
    let t = Instant::now();
    let (qx_hits, _) = scan_str(&tree, &dict, &doc)?;
    let qx_time = t.elapsed();
    let t = Instant::now();
    let dom = DomTree::parse(&doc, &dict)?;
    let dom_hits = DomXPath::new(&tree, &dict).eval(&dom);
    let dom_time = t.elapsed();
    assert_eq!(qx_hits.len(), dom_hits.len());
    println!(
        "  QuickXScan: {qx_time:.2?}   DOM: {dom_time:.2?} (incl. {} bytes of tree)   speedup {:.1}x",
        dom.approx_bytes(),
        dom_time.as_secs_f64() / qx_time.as_secs_f64()
    );

    // --- Fig. 7: active state count on recursive documents ----------------
    println!("\nFig. 7 state comparison (//a//a//a over r nested <a> elements):");
    println!(
        "  {:>4} {:>22} {:>22}",
        "r", "QuickXScan peak", "naive matcher peak"
    );
    let path = XPathParser::new().parse("//a//a//a")?;
    let tree3 = QueryTree::compile(&path)?;
    for r in [4usize, 8, 16, 32, 64] {
        let doc = recursive_doc("a", r, "x");
        let (_, stats) = scan_str(&tree3, &dict, &doc)?;
        let mut naive = NaiveStreamMatcher::new(&tree3, &dict)?;
        system_rx::xml::Parser::new(&dict).parse(&doc, &mut naive)?;
        let (_, naive_peak) = naive.finish();
        println!("  {r:>4} {:>22} {naive_peak:>22}", stats.peak_instances);
    }

    // --- A recursive query with predicates over a BOM document ------------
    println!("\nBill-of-materials: parts containing a part named p12:");
    let doc = bom_doc(5, 3);
    let path = XPathParser::new().parse(r#"//part[.//name = "p12"]"#)?;
    let tree = QueryTree::compile(&path)?;
    let (hits, stats) = scan_str(&tree, &dict, &doc)?;
    println!(
        "  {} matching ancestors (every part on the path to p12); {} propagations",
        hits.len(),
        stats.propagations
    );
    Ok(())
}
