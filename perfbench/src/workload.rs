//! The three workloads: corpus, engine configuration, and the seeded op
//! stream each client session replays, with the expected answer of every op.
//!
//! Everything here is a pure function of the workload seed: the corpus comes
//! from `rx-gen`, the op stream from a per-session `StdRng`, and the expected
//! answers from `rx-gen`'s closed forms (`CatalogSpec::price`,
//! `CatalogSpec::discount`) — never from evaluating a query.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rx_engine::DbConfig;
use rx_gen::CatalogSpec;
use rx_xml::KeyType;
use std::collections::VecDeque;
use std::sync::Arc;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Point fetches and narrow range queries over a corpus that fits every
    /// cache.
    LookupHot,
    /// Full QuickXScan queries over a corpus larger than the buffer pool.
    ScanCold,
    /// Write transactions beside point queries on the same value index.
    IngestMixed,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::LookupHot,
        Workload::ScanCold,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupHot => "lookup-hot",
            Workload::ScanCold => "scan-cold",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops each session runs before the measured window, so the doc cache
    /// and the buffer pool reach their steady state first. For ingest-mixed
    /// this is also the fixed amount of churn `space_amp` is measured after.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::LookupHot => 400,
            Workload::ScanCold => 4,
            Workload::IngestMixed => 1_000,
        }
    }
}

/// The request class an op belongs to; latencies are kept per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `FetchRow`.
    Fetch,
    /// `Query`.
    Query,
    /// One write transaction, `Begin` through `Commit`.
    Write,
}

/// Name of the products and orders tables' XML column.
pub const XML_COLUMN: &str = "doc";
/// The Discount threshold of scan-cold's indexed query.
const DISCOUNT_THRESHOLD: &str = "0.30";
/// Line items per order document.
const ORDER_ITEMS: usize = 8;
/// Zipf skew of lookup-hot's fetch keys and price windows.
const ZIPF_THETA: f64 = 0.99;
/// Products per lookup-hot price window (the expected hit count).
const WINDOW: usize = 3;
/// How far back among a session's committed orders ingest-mixed queries.
const RECENT_ORDERS: usize = 50;

/// One client operation. Ids are corpus positions (product `i`, order `i`);
/// the runner maps them to the DocIDs the database assigned.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `FetchRow` of product `product`.
    Fetch {
        /// Product position.
        product: usize,
    },
    /// Two-bound price range query; the expected hits are the products at
    /// positions `expected` of the price-sorted corpus.
    PriceRange {
        /// Lower literal (exclusive).
        lo: String,
        /// Upper literal (exclusive).
        hi: String,
        /// Expected hits, as a range of price-sorted positions.
        expected: std::ops::Range<usize>,
    },
    /// Non-indexed `ProductName` equality: a full scan with one hit.
    NameScan {
        /// Product position.
        product: usize,
    },
    /// Indexed low-selectivity `Discount` query.
    Discount,
    /// Insert order `insert` and delete order `delete` in one transaction.
    Write {
        /// New order id.
        insert: usize,
        /// The session's oldest live order.
        delete: usize,
    },
    /// Query the SKUs of order `order`.
    OrderQuery {
        /// A recently committed order of this session.
        order: usize,
    },
}

impl Op {
    /// The op's request class.
    pub fn class(&self) -> Class {
        match self {
            Op::Fetch { .. } => Class::Fetch,
            Op::Write { .. } => Class::Write,
            _ => Class::Query,
        }
    }

    /// XPath text of a query op.
    pub fn path(&self) -> Option<String> {
        Some(match self {
            Op::PriceRange { lo, hi, .. } => {
                format!("/Catalog/Categories/Product[RegPrice > {lo} and RegPrice < {hi}]")
            }
            Op::NameScan { product } => format!(
                "/Catalog/Categories/Product[ProductName = \"{}\"]/RegPrice",
                product_name(*product)
            ),
            Op::Discount => {
                format!("/Catalog/Categories/Product[Discount > {DISCOUNT_THRESHOLD}]/ProductName")
            }
            Op::OrderQuery { order } => {
                format!("/Order[Customer = \"cust-{order}\"]/Item/Sku")
            }
            Op::Fetch { .. } | Op::Write { .. } => return None,
        })
    }
}

/// `ProductName` text of product `i` (as `rx_gen::product_doc` writes it).
fn product_name(i: usize) -> String {
    format!("Product-{i:06}")
}

/// A workload's seeded corpus and the tables derived from it that the op
/// generator and the answer checks share.
pub struct Corpus {
    /// Which workload this corpus belongs to.
    pub workload: Workload,
    /// Product catalog parameters (unused by ingest-mixed).
    spec: CatalogSpec,
    /// Documents loaded before the first op.
    pub docs: usize,
    /// Product positions sorted by `(price, position)`.
    by_price: Vec<usize>,
    /// Products whose stored Discount exceeds the scan-cold threshold.
    discount_hits: Vec<usize>,
    doc_zipf: Zipf,
    doc_perm: Vec<usize>,
    window_zipf: Zipf,
    window_perm: Vec<usize>,
}

impl Corpus {
    /// The full-size corpus of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Corpus {
        let (docs, description_len) = match workload {
            Workload::LookupHot => (20_000, 64),
            Workload::ScanCold => (1_000, 200),
            Workload::IngestMixed => (5_000, 0),
        };
        let spec = CatalogSpec {
            products: docs,
            description_len,
            seed,
            ..CatalogSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0A1);
        let (mut by_price, mut discount_hits) = (Vec::new(), Vec::new());
        let (mut doc_perm, mut window_perm) = (Vec::new(), Vec::new());
        match workload {
            Workload::LookupHot => {
                by_price = (0..docs).collect();
                by_price.sort_by(|&a, &b| spec.price(a).total_cmp(&spec.price(b)).then(a.cmp(&b)));
                doc_perm = permutation(docs, &mut rng);
                window_perm = permutation(docs.div_ceil(WINDOW), &mut rng);
            }
            Workload::ScanCold => {
                let threshold: f64 = DISCOUNT_THRESHOLD.parse().expect("numeric threshold");
                // Compare the text the document holds, not the closed form's
                // unrounded value (level 6 is 0.30000000000000004).
                discount_hits = (0..docs)
                    .filter(|&i| stored_decimal(spec.discount(i)) > threshold)
                    .collect();
            }
            Workload::IngestMixed => {}
        }
        Corpus {
            workload,
            doc_zipf: Zipf::new(doc_perm.len(), ZIPF_THETA),
            window_zipf: Zipf::new(window_perm.len(), ZIPF_THETA),
            spec,
            docs,
            by_price,
            discount_hits,
            doc_perm,
            window_perm,
        }
    }

    /// Base table name.
    pub fn table(&self) -> &'static str {
        match self.workload {
            Workload::IngestMixed => "orders",
            _ => "products",
        }
    }

    /// Value indexes created before the load: `(name, path, key type)`.
    pub fn indexes(&self) -> &'static [(&'static str, &'static str, KeyType)] {
        match self.workload {
            Workload::LookupHot => &[
                (
                    "price_idx",
                    "/Catalog/Categories/Product/RegPrice",
                    KeyType::Double,
                ),
                ("disc_idx", "//Discount", KeyType::Double),
            ],
            Workload::ScanCold => &[("disc_idx", "//Discount", KeyType::Double)],
            Workload::IngestMixed => &[("cust_idx", "/Order/Customer", KeyType::String)],
        }
    }

    /// Engine configuration; every knob not named here keeps its default.
    pub fn db_config(&self) -> DbConfig {
        match self.workload {
            // Holds lookup-hot's hot set (the documents of the most frequent
            // price windows) but not its 20,000-document corpus.
            Workload::LookupHot => DbConfig {
                doc_cache_bytes: 2 << 20,
                ..DbConfig::default()
            },
            Workload::ScanCold => DbConfig {
                buffer_pages: 64,
                ..DbConfig::default()
            },
            Workload::IngestMixed => DbConfig::default(),
        }
    }

    /// The relational key column of document `i` (what `FetchRow` returns).
    pub fn key(&self, i: usize) -> String {
        match self.workload {
            Workload::IngestMixed => format!("order-{i}"),
            _ => product_name(i),
        }
    }

    /// XML text of document `i`; ingest-mixed orders beyond the preload are
    /// the ones sessions insert.
    pub fn doc_text(&self, i: usize) -> String {
        match self.workload {
            Workload::IngestMixed => rx_gen::order_doc(i, ORDER_ITEMS),
            _ => rx_gen::product_doc(&self.spec, i),
        }
    }

    /// Stored `RegPrice` text of product `i`.
    fn price_text(&self, i: usize) -> String {
        format!("{:.2}", self.spec.price(i))
    }
}

/// The value a `{:.2}` field holds once parsed back.
fn stored_decimal(v: f64) -> f64 {
    format!("{v:.2}").parse().expect("formatted float parses")
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(θ) over ranks `0..n`, sampled by binary search on the CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(theta);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = unit(rng) * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// One session's op stream. Sessions own disjoint order ids in ingest-mixed,
/// so each stream is a function of `(seed, session, sessions)` alone and
/// never depends on how the sessions interleave.
pub struct OpStream {
    corpus: Arc<Corpus>,
    rng: StdRng,
    /// ingest-mixed: this session's live orders, oldest first.
    own: VecDeque<usize>,
    next_order: usize,
    step: usize,
    write_next: bool,
}

impl OpStream {
    /// The stream of session `session` out of `sessions`.
    pub fn new(corpus: Arc<Corpus>, seed: u64, session: usize, sessions: usize) -> OpStream {
        let salt = (session as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let own = match corpus.workload {
            Workload::IngestMixed => (session..corpus.docs).step_by(sessions).collect(),
            _ => VecDeque::new(),
        };
        OpStream {
            rng: StdRng::seed_from_u64(seed.rotate_left(17) ^ salt),
            own,
            next_order: corpus.docs + session,
            step: sessions,
            write_next: true,
            corpus,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let c = Arc::clone(&self.corpus);
        match c.workload {
            Workload::LookupHot => {
                if unit(&mut self.rng) < 0.7 {
                    Op::Fetch {
                        product: c.doc_perm[c.doc_zipf.sample(&mut self.rng)],
                    }
                } else {
                    self.price_window(&c)
                }
            }
            Workload::ScanCold => {
                if unit(&mut self.rng) < 0.9 {
                    Op::NameScan {
                        product: self.rng.gen_range(0..c.docs),
                    }
                } else {
                    Op::Discount
                }
            }
            Workload::IngestMixed => {
                let write = self.write_next;
                self.write_next = !write;
                if write {
                    let delete = self.own.pop_front().expect("session owns orders");
                    let insert = self.next_order;
                    self.next_order += self.step;
                    self.own.push_back(insert);
                    Op::Write { insert, delete }
                } else {
                    let back = self.rng.gen_range(0..RECENT_ORDERS.min(self.own.len()));
                    Op::OrderQuery {
                        order: self.own[self.own.len() - 1 - back],
                    }
                }
            }
        }
    }

    /// A price window around `WINDOW` consecutive products of the
    /// price-sorted corpus. Literals sit strictly between cent values, 20-80%
    /// of a cent outside the window's end prices, so each request carries
    /// fresh text while the hit set stays exact.
    fn price_window(&mut self, c: &Corpus) -> Op {
        let w = c.window_perm[c.window_zipf.sample(&mut self.rng)];
        let first = w * WINDOW;
        let last = (first + WINDOW).min(c.docs) - 1;
        let price = |pos: usize| c.spec.price(c.by_price[pos]);
        let lo = price(first) - 0.01 * (0.2 + 0.6 * unit(&mut self.rng));
        let hi = price(last) + 0.01 * (0.2 + 0.6 * unit(&mut self.rng));
        let start = c.by_price.partition_point(|&i| c.spec.price(i) <= lo);
        let end = c.by_price.partition_point(|&i| c.spec.price(i) < hi);
        Op::PriceRange {
            lo: format!("{lo:.4}"),
            hi: format!("{hi:.4}"),
            expected: start..end,
        }
    }
}

/// One query hit, as both the wire and the engine return it.
pub struct HitRef<'a> {
    /// Owning document.
    pub doc: u64,
    /// String value of the matched node.
    pub value: &'a str,
}

/// Maps corpus positions to DocIDs: the preload's in a shared table, the
/// session's own inserts in a local map.
pub struct DocIds {
    loaded: Arc<Vec<u64>>,
    inserted: std::collections::HashMap<usize, u64>,
}

impl DocIds {
    /// Start from the preload's DocIDs.
    pub fn new(loaded: Arc<Vec<u64>>) -> DocIds {
        DocIds {
            loaded,
            inserted: Default::default(),
        }
    }

    /// DocID of document `i`.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.loaded
            .get(i)
            .copied()
            .or_else(|| self.inserted.get(&i).copied())
    }

    /// Record the DocID an insert returned.
    pub fn insert(&mut self, i: usize, doc: u64) {
        self.inserted.insert(i, doc);
    }
}

impl Corpus {
    /// Whether `hits` is exactly the answer of query op `op`.
    pub fn check_hits(&self, op: &Op, ids: &DocIds, hits: &[HitRef<'_>]) -> bool {
        let want: Vec<(u64, String)> = match op {
            Op::PriceRange { expected, .. } => {
                // The matched node is the whole <Product>; its string value
                // starts with the product name.
                let mut want: Vec<u64> = self.by_price[expected.clone()]
                    .iter()
                    .filter_map(|&i| ids.get(i))
                    .collect();
                want.sort_unstable();
                let mut got: Vec<u64> = hits.iter().map(|h| h.doc).collect();
                got.sort_unstable();
                return want.len() == expected.len()
                    && got == want
                    && hits.iter().all(|h| h.value.starts_with("Product-"));
            }
            Op::NameScan { product } => match ids.get(*product) {
                Some(doc) => vec![(doc, self.price_text(*product))],
                None => return false,
            },
            Op::Discount => {
                let mut want: Vec<(u64, String)> = self
                    .discount_hits
                    .iter()
                    .filter_map(|&i| Some((ids.get(i)?, product_name(i))))
                    .collect();
                want.sort();
                let mut got: Vec<(u64, String)> =
                    hits.iter().map(|h| (h.doc, h.value.to_string())).collect();
                got.sort();
                return want.len() == self.discount_hits.len() && got == want;
            }
            Op::OrderQuery { order } => match ids.get(*order) {
                Some(doc) => (0..ORDER_ITEMS)
                    .map(|k| (doc, format!("sku-{k}")))
                    .collect(),
                None => return false,
            },
            Op::Fetch { .. } | Op::Write { .. } => return false,
        };
        hits.len() == want.len()
            && hits
                .iter()
                .zip(&want)
                .all(|(h, (doc, value))| h.doc == *doc && h.value == value)
    }

    /// Whether a fetched row `(doc, key column)` is product `product`'s.
    pub fn check_row(&self, product: usize, ids: &DocIds, doc: u64, key: Option<&str>) -> bool {
        ids.get(product) == Some(doc) && key == Some(self.key(product).as_str())
    }
}
