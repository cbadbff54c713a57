//! # rx-xpath — XPath compilation and the QuickXScan streaming evaluator
//!
//! The query-processing heart of the System R/X reproduction (§4.2):
//!
//! * [`parser`] — LALR(1)-style XPath parser for the paper's forward-axis
//!   fragment, with the parent-axis rewrite;
//! * [`query_tree`] — the Fig. 6 query tree with single-line (child) and
//!   double-line (descendant) edges and predicate operand subtrees;
//! * [`quickxscan`] — **QuickXScan**: attribute-grammar streaming evaluation
//!   with per-query-node matching stacks, upward links, and the duplicate-free
//!   Table 1 propagation rules; O(|Q|·r) live state, O(|Q|·r·|D|) time;
//! * [`containment`] — index-path vs query-path containment (exact vs
//!   filtering index use, Table 2).
//!
//! The DOM-based and naive per-instance streaming baselines of the paper's
//! comparison (Fig. 7) live in `rx-bench`.

#![warn(missing_docs)]

pub mod ast;
pub mod containment;
pub mod error;
pub mod parser;
pub mod query_tree;
pub mod quickxscan;

pub use ast::{Axis, CmpOp, Expr, NodeTest, Operand, Path, Step};
pub use containment::{classify, IndexMatch};
pub use error::{Result, XPathError};
pub use parser::XPathParser;
pub use query_tree::QueryTree;
pub use quickxscan::{scan_str, QuickXScan, ResultItem, ScanStats};
