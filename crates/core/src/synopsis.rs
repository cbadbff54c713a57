//! Per-document equality synopses: skip documents that cannot match
//! (DESIGN.md §19).
//!
//! QuickXScan's skip rule (§4.2) stops work *inside* a document; a synopsis
//! stops it before the document is read at all. Every base row carries, per
//! XML column, a small Bloom filter (a signature file in the sense of the
//! XML IR literature) holding `(name, string value)` for every attribute and
//! every element of the document. An element's string value is the
//! concatenation of its descendant text, in document order, so an element
//! with element children has an entry just as a leaf has.
//!
//! Names are keyed by their local name, not by `QNameId`: an XPath name test
//! matches the local name (and a namespace URI when it names one) whatever
//! the prefix, while a `QNameId` also tells prefixes apart.
//!
//! A query equality `relpath = "literal"` whose last step names an element
//! or attribute `n`, in a positive conjunction, holds in a document only if
//! the document has a node named `n` whose string value is the literal, so
//! the filter admits the document when `(n, literal)` may be in it: one
//! probe decides. Everything else admits: numbers, ranges, `or`, `not`,
//! `text()`, wildcards. A false positive costs the scan it costs without a
//! synopsis, so answers never change.
//!
//! Synopses are built in the keygen pass at insert ([`SynopsisBuilder`],
//! driven by [`crate::validx::IndexKeyGen`]), rewritten in place from the
//! post-image by `update_document_txn`, and read only under the document's
//! S lock ([`prune`]).

use crate::access::AccessStats;
use crate::db::{base_row_slot, BaseTable, XmlColumn};
use crate::error::Result;
use crate::xmltable::DocId;
use rx_storage::Rid;
use rx_xml::event::Event;
use rx_xml::name::{NameDict, QNameId};
use rx_xpath::ast::{CmpOp, Expr, NodeTest, Operand, Path};
use std::sync::Arc;

/// Bits set per entry (and tested per probe): one per 16-bit quarter of
/// the entry's hash.
const PROBES: usize = 4;
/// Filter size per distinct entry, in half bits (5.5 bits per entry). An
/// order of eight line items has 28 distinct entries, one per item's string
/// value among them, and this keeps it at two words.
const HALF_BITS_PER_ENTRY: usize = 11;
/// Largest filter, in 64-bit words. A document with more distinct entries
/// than this holds at 5.5 bits each gets a denser filter, which admits more
/// often but never wrongly.
pub const MAX_WORDS: usize = 32;
/// Buffer bytes a [`SynopsisBuilder`] keeps between documents.
const KEEP_BYTES: usize = 64 << 10;
/// Seed of [`value_hash`], so a value and a name of the same text hash
/// apart.
const VALUE_SEED: u64 = 0x5641_4c55_4500_0000; // "VALUE"

/// The MurmurHash3 64-bit finalizer.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The synopsis hash. Eight bytes at a time (little-endian, the tail
/// zero-padded), each word is xored into the state, which is multiplied by
/// an odd constant and rotated; the state starts at `seed` xor the scaled
/// length and ends through the MurmurHash3 finalizer. Synopses are
/// persisted, so this function is fixed by a test vector and must never
/// change (std's `DefaultHasher` is not stable across releases).
pub fn hash64(seed: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(
            h,
            u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Byte by byte rather than through a copy: the tail is short, and a
        // variable-length copy costs a call.
        let last = tail
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        h = step(h, last);
    }
    fmix64(h)
}

/// The key of an element or attribute name: a hash of its local name.
pub fn name_key(local: &str) -> u64 {
    hash64(0, local.as_bytes())
}

/// The hash of a string value, independent of the node's name.
pub fn value_hash(value: &str) -> u64 {
    hash64(VALUE_SEED, value.as_bytes())
}

/// The entry of a node whose name has key `name_key` and whose string
/// value hashes to `value_hash`.
pub fn entry(name_key: u64, value_hash: u64) -> u64 {
    fmix64(name_key ^ value_hash.rotate_left(32))
}

/// Filter size in 64-bit words for `entries` distinct entries: 5.5 bits
/// per entry, rounded to the nearest word, at least one word and at most
/// [`MAX_WORDS`].
pub fn words_for(entries: usize) -> usize {
    ((entries * HALF_BITS_PER_ENTRY + 64) / 128).clamp(1, MAX_WORDS)
}

/// The bit positions of entry `h` in a filter of `bits` bits: each of the
/// hash's four 16-bit quarters scaled into `0..bits` (multiply and shift).
/// `bits` is at least 64.
fn positions(h: u64, bits: u32) -> impl Iterator<Item = u32> {
    let mut out = [0u32; PROBES];
    for i in 0..PROBES {
        let mut p = (((h >> (16 * i)) as u32 & 0xFFFF) * bits) >> 16;
        // A repeated position moves to the next free bit, so every entry
        // sets (and every probe tests) `PROBES` distinct bits.
        while out[..i].contains(&p) {
            p = (p + 1) % bits;
        }
        out[i] = p;
    }
    out.into_iter()
}

/// A filter of `len` bytes holding `entries`. Bit `i` is bit `i % 8` of
/// byte `i / 8`, so the bytes are the filter's 64-bit words in
/// little-endian order.
pub fn encode(entries: &[u64], len: usize) -> Vec<u8> {
    let mut filter = vec![0u8; len];
    let bits = (len * 8) as u32;
    if bits > 0 {
        for &h in entries {
            for p in positions(h, bits) {
                filter[(p / 8) as usize] |= 1 << (p % 8);
            }
        }
    }
    filter
}

/// The filter of a new document: sized by its distinct `entries` (sorted
/// and deduplicated, as [`SynopsisBuilder::finish`] returns them).
pub fn encode_sized(entries: &[u64]) -> Vec<u8> {
    encode(entries, words_for(entries.len()) * 8)
}

/// May `filter` hold entry `h`? An empty filter holds everything.
pub fn may_contain(filter: &[u8], h: u64) -> bool {
    let bits = (filter.len() * 8) as u32;
    bits == 0 || positions(h, bits).all(|p| filter[(p / 8) as usize] & (1 << (p % 8)) != 0)
}

/// One decidable equality conjunct, as the entry that admits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisTerm {
    /// `(name, literal)`.
    pub entry: u64,
}

impl SynopsisTerm {
    /// The term of `name = "literal"` on elements or attributes with local
    /// name `local`.
    pub fn new(local: &str, literal: &str) -> Self {
        SynopsisTerm {
            entry: entry(name_key(local), value_hash(literal)),
        }
    }

    /// Does `filter` admit a document that may satisfy this term?
    pub fn admits(&self, filter: &[u8]) -> bool {
        may_contain(filter, self.entry)
    }
}

/// An equality conjunct of a query path that a synopsis decides.
#[derive(Debug, Clone, Copy)]
pub struct Conjunct<'p> {
    /// The main-path step whose predicate conjunction holds the comparison;
    /// `None` when it sits inside a nested path's predicate.
    pub step: Option<usize>,
    /// The compared path; its last step names an element or attribute.
    pub operand: &'p Path,
    /// The string literal.
    pub literal: &'p str,
    /// The entries that admit it.
    pub term: SynopsisTerm,
}

/// Every decidable conjunct of `path`: a `relpath = "string literal"` term
/// in a positive conjunction of any step's predicates (or of the
/// predicates of a path whose existence such a conjunction requires), whose
/// last step names an element or an attribute.
pub fn conjuncts(path: &Path) -> Vec<Conjunct<'_>> {
    let mut out = Vec::new();
    for (i, step) in path.steps.iter().enumerate() {
        for p in &step.predicates {
            collect(p, Some(i), &mut out);
        }
    }
    out
}

fn collect<'p>(expr: &'p Expr, step: Option<usize>, out: &mut Vec<Conjunct<'p>>) {
    match expr {
        Expr::And(a, b) => {
            collect(a, step, out);
            collect(b, step, out);
        }
        Expr::Exists(p) => {
            for s in &p.steps {
                for q in &s.predicates {
                    collect(q, None, out);
                }
            }
        }
        Expr::Cmp(CmpOp::Eq, Operand::Path(p), Operand::Literal(l))
        | Expr::Cmp(CmpOp::Eq, Operand::Literal(l), Operand::Path(p)) => {
            if let Some(NodeTest::Name { local, .. }) = p.steps.last().map(|s| &s.test) {
                out.push(Conjunct {
                    step,
                    operand: p,
                    literal: l,
                    term: SynopsisTerm::new(local, l),
                });
            }
        }
        _ => {}
    }
}

/// Builds a document's synopsis entries from its event stream. An
/// element's string value is the text that arrives between its start and
/// its end, so one buffer holds the text of every open element and each
/// element remembers where its own begins. A builder keeps its buffers and
/// the key of every name it has met from one document to the next, so the
/// database reuses builders rather than making one per document.
pub struct SynopsisBuilder {
    dict: Arc<NameDict>,
    /// Each open element and where its text starts in `text`.
    open: Vec<(QNameId, usize)>,
    /// The text of the open elements, in document order.
    text: String,
    /// The entries of the document so far.
    entries: Vec<u64>,
    /// The key of each name met so far, by `QNameId`; 0 until it is met (a
    /// name whose key is 0 is only hashed again).
    keys: Vec<u64>,
}

impl SynopsisBuilder {
    /// An empty builder resolving names through `dict`.
    pub fn new(dict: Arc<NameDict>) -> Self {
        SynopsisBuilder {
            dict,
            open: Vec::with_capacity(8),
            text: String::with_capacity(256),
            entries: Vec::with_capacity(32),
            keys: Vec::new(),
        }
    }

    /// The key of the local name of `name`.
    fn key(&mut self, name: QNameId) -> u64 {
        let i = name as usize;
        match self.keys.get(i) {
            Some(&key) if key != 0 => key,
            _ => {
                let key = name_key(&self.dict.local_of(name));
                if self.keys.len() <= i {
                    self.keys.resize(i + 1, 0);
                }
                self.keys[i] = key;
                key
            }
        }
    }

    /// Observe one event of the document.
    pub fn event(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::StartElement { name } => self.open.push((name, self.text.len())),
            Event::Attribute { name, value, .. } => {
                let entry = entry(self.key(name), value_hash(value));
                self.entries.push(entry);
            }
            Event::Text { value, .. } if !self.open.is_empty() => self.text.push_str(value),
            Event::EndElement => {
                if let Some((name, start)) = self.open.pop() {
                    let entry = entry(self.key(name), value_hash(&self.text[start..]));
                    self.entries.push(entry);
                    if self.open.is_empty() {
                        self.text.clear();
                    }
                }
            }
            _ => {}
        }
    }

    /// Hand the document's distinct entries, sorted, to `take`, and get
    /// ready for the next document. Buffers that a large document grew
    /// past `KEEP_BYTES` are released, so an idle builder stays small.
    pub fn finish<R>(&mut self, take: impl FnOnce(&[u64]) -> R) -> R {
        self.open.clear();
        self.text.clear();
        self.entries.sort_unstable();
        self.entries.dedup();
        let out = take(&self.entries);
        self.entries.clear();
        if self.text.capacity() > KEEP_BYTES {
            self.text = String::new();
        }
        if self.entries.capacity() * 8 > KEEP_BYTES {
            self.entries = Vec::new();
        }
        out
    }
}

/// Keep the candidates `docs` (DocID order, every one S-locked by the
/// caller) whose synopsis in `column` admits every term of `terms`. `rids`
/// are the candidates' base-row RIDs when the caller has them (a DocID-index
/// scan); otherwise each is looked up. Consecutive rows on one page are read
/// under one page latch. A candidate without a base row, or whose row holds
/// another DocID (its slot was reused after a delete that committed before
/// the S lock), is dropped as missing: evaluating it would find nothing.
/// Documents the synopsis rules out count in `stats.docs_pruned`.
pub fn prune(
    table: &BaseTable,
    column: &XmlColumn,
    terms: &[SynopsisTerm],
    docs: Vec<DocId>,
    rids: Option<Vec<Rid>>,
    stats: &mut AccessStats,
) -> Result<Vec<DocId>> {
    if terms.is_empty() || docs.is_empty() {
        return Ok(docs);
    }
    let (docs, rids) = match rids {
        Some(rids) => (docs, rids),
        None => {
            let mut found = (
                Vec::with_capacity(docs.len()),
                Vec::with_capacity(docs.len()),
            );
            for doc in docs {
                if let Some(rid) = table.row_rid(doc)? {
                    found.0.push(doc);
                    found.1.push(rid);
                }
            }
            found
        }
    };
    let mut keep = Vec::with_capacity(docs.len());
    let mut err = None;
    table.heap().fetch_each(&rids, |i, rec| {
        let Some(rec) = rec else { return };
        match base_row_slot(rec, column.position) {
            Ok((doc, filter)) if doc == docs[i] => {
                if terms.iter().all(|t| t.admits(filter)) {
                    keep.push(doc);
                } else {
                    stats.docs_pruned += 1;
                }
            }
            Ok(_) => {}
            Err(e) => {
                err.get_or_insert(e);
            }
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(keep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_xml::parser::Parser;
    use rx_xml::EventSink;

    /// The entries of `xml` as the insert-time keygen pass builds them.
    fn entries(xml: &str) -> Vec<u64> {
        struct Sink(SynopsisBuilder);
        impl EventSink for Sink {
            fn event(&mut self, ev: Event<'_>) -> rx_xml::Result<()> {
                self.0.event(&ev);
                Ok(())
            }
        }
        let dict = Arc::new(NameDict::new());
        let mut sink = Sink(SynopsisBuilder::new(Arc::clone(&dict)));
        Parser::new(&dict).parse(xml, &mut sink).unwrap();
        sink.0.finish(<[u64]>::to_vec)
    }

    #[test]
    fn hash_matches_its_test_vector() {
        // Synopses are persisted: these values must never change.
        assert_eq!(value_hash(""), 0x8d4f_3c5a_5bd5_5915);
        assert_eq!(hash64(0, b"ProductName"), 0xf834_6787_d190_dd59);
        assert_eq!(
            entry(name_key("ProductName"), value_hash("Product-000042")),
            0x0815_e834_45dd_17e2
        );
        let filter = encode(&[entry(name_key("a"), value_hash("x"))], 8);
        assert_eq!(filter, [36, 0, 0, 0, 128, 0, 0, 16]);
    }

    #[test]
    fn sizes_follow_distinct_entries() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(9), 1, "a product document");
        assert_eq!(words_for(28), 2, "an order of eight items");
        assert_eq!(words_for(1_000_000), MAX_WORDS);
    }

    #[test]
    fn attributes_and_elements_are_entries_by_string_value() {
        let doc = r#"<r a="1"><p><n>x<!--c-->y</n><e/></p><n><k>z</k>w</n></r>"#;
        let got = entries(doc);
        let entry_of = |n: &str, v: &str| entry(name_key(n), value_hash(v));
        let mut want = vec![
            entry_of("a", "1"),
            entry_of("n", "xy"),
            entry_of("e", ""),
            entry_of("p", "xy"),
            entry_of("k", "z"),
            entry_of("n", "zw"),
            entry_of("r", "xyzw"),
        ];
        want.sort_unstable();
        assert_eq!(got, want);
        let filter = encode_sized(&got);
        for (name, lit) in [
            ("a", "1"),
            ("n", "xy"),
            ("n", "zw"),
            ("p", "xy"),
            ("e", ""),
            ("k", "z"),
            ("r", "xyzw"),
        ] {
            assert!(SynopsisTerm::new(name, lit).admits(&filter), "{name}={lit}");
        }
        assert!(SynopsisTerm::new("e", "x").admits(&[]), "no filter admits");
    }

    #[test]
    fn many_distinct_names_fit_the_largest_filter() {
        // 700 names with element children: the filter is capped at
        // MAX_WORDS and still admits every one of them.
        let mut doc = String::from("<r>");
        for i in 0..700 {
            doc.push_str(&format!("<n{i}><v>{i}</v></n{i}>"));
        }
        doc.push_str("</r>");
        let got = entries(&doc);
        assert_eq!(got.len(), 1 + 700 + 700, "r, each n{{i}} and each v value");
        let filter = encode_sized(&got);
        assert_eq!(filter.len(), MAX_WORDS * 8);
        for i in 0..700 {
            let v = i.to_string();
            assert!(SynopsisTerm::new(&format!("n{i}"), &v).admits(&filter));
            assert!(SynopsisTerm::new("v", &v).admits(&filter));
        }
    }

    #[test]
    fn absent_values_are_mostly_rejected() {
        let doc = rx_gen::product_doc(&rx_gen::CatalogSpec::default(), 42);
        let filter = encode_sized(&entries(&doc));
        assert_eq!(filter.len(), 8);
        assert!(SynopsisTerm::new("ProductName", "Product-000042").admits(&filter));
        let admitted = (0..10_000)
            .filter(|i| SynopsisTerm::new("ProductName", &format!("absent-{i}")).admits(&filter))
            .count();
        assert!(
            admitted < 2_000,
            "{admitted} of 10000 absent values admitted"
        );
    }

    #[test]
    fn decidable_conjuncts() {
        let parse = |q: &str| rx_xpath::XPathParser::new().parse(q).unwrap();
        let count = |q: &str| conjuncts(&parse(q)).len();
        assert_eq!(count(r#"/a/b[c = "x"]/d"#), 1);
        assert_eq!(count(r#"/a[@id = "1"]/b["y" = c/d and e = "z"]"#), 3);
        assert_eq!(count(r#"/a[b[c = "x"]]"#), 1);
        assert_eq!(count(r#"/a[c = "x"]"#), 1);
        let nested = parse(r#"/a[b[c = "x"] and d = "y"]"#);
        assert_eq!(
            conjuncts(&nested)
                .iter()
                .map(|c| c.step)
                .collect::<Vec<_>>(),
            [None, Some(0)]
        );
        for undecidable in [
            "/a[b = 1]",
            r#"/a[b != "x"]"#,
            r#"/a[b > "x"]"#,
            r#"/a[b = "x" or c = "y"]"#,
            r#"/a[not(b = "x")]"#,
            r#"/a[text() = "x"]"#,
            r#"/a[* = "x"]"#,
            r#"/a[@* = "x"]"#,
            r#"/a[. = "x"]"#,
            r#"/a[count(b) = "1"]"#,
            r#"/a[b = c]"#,
        ] {
            assert_eq!(count(undecidable), 0, "{undecidable}");
        }
    }
}
