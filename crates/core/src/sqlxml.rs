//! A SQL/XML statement layer (§2).
//!
//! "Currently, all the manipulation and querying of XML data are through SQL
//! and SQL/XML with embedded XPath and XQuery. To SQL, XML is just a new data
//! type with a more complex content."
//!
//! This module implements the dialect the examples use:
//!
//! ```sql
//! CREATE TABLE products (sku VARCHAR, doc XML)
//! CREATE INDEX price_idx ON products (doc) USING XPATH '/Catalog/Product/RegPrice' AS DOUBLE
//! REGISTER SCHEMA cat AS '<xs:schema …>'
//! INSERT INTO products VALUES ('SKU-1', XML('<Catalog>…</Catalog>'))
//! INSERT INTO products VALUES ('SKU-2', XMLVALIDATE('<Catalog>…</Catalog>' ACCORDING TO cat))
//! SELECT XMLQUERY('/Catalog/Product[RegPrice > 100]') FROM products
//! SELECT * FROM products WHERE XMLEXISTS('/Catalog/Product[RegPrice > 100]')
//! SELECT XMLSERIALIZE(doc) FROM products WHERE DOCID = 3
//! DELETE FROM products WHERE DOCID = 3
//! EXPLAIN SELECT XMLQUERY('…') FROM products
//! -- §4.1 publishing functions (evaluated through tagging templates):
//! SELECT XMLELEMENT(NAME Emp, XMLATTRIBUTES(sku AS id), XMLFOREST(region AS r)) FROM products
//! SELECT XMLAGG(XMLELEMENT(NAME p, sku) ORDER BY sku) FROM products
//! -- XQuery-lite FLWOR (§6 future-work extension):
//! XQUERY 'for $p in /Catalog/Product where $p/RegPrice > 100
//!         return <hit>{ $p/ProductName }</hit>' ON products
//! ```

use crate::access::{self, QueryHit};
use crate::conc;
use crate::construct::{Constructed, Ctor, CtorAttr, Template, ValueExpr, XmlAgg};
use crate::db::{BaseTable, ColValue, ColumnKind, Database, Row};
use crate::error::{EngineError, Result};
use crate::xmltable::DocId;
use rx_storage::Txn;
use rx_xml::value::KeyType;
use rx_xpath::XPathParser;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug)]
pub enum Output {
    /// DDL success.
    Done,
    /// Rows affected.
    Count(u64),
    /// Base-table rows.
    Rows(Vec<Row>),
    /// XPath result sequence.
    Sequence(Vec<QueryHit>),
    /// Serialized documents `(docid, xml)`.
    Documents(Vec<(DocId, String)>),
    /// Plan explanation text.
    Explain(String),
    /// Constructed XML, one string per input row (or one for XMLAGG).
    Xml(Vec<String>),
}

/// A session bound to a database. Each `SELECT` and `XQUERY` statement
/// reads in one transaction of its own, under the §5.1 locks.
pub struct Session {
    db: Arc<Database>,
}

impl Session {
    /// Open a session.
    pub fn new(db: Arc<Database>) -> Session {
        Session { db }
    }

    /// The database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Execute one statement.
    pub fn execute(&self, sql: &str) -> Result<Output> {
        let toks = lex(sql)?;
        let mut p = P { toks, pos: 0 };
        p.statement(self)
    }
}

/// Run `f` in one transaction: committed when it succeeds, rolled back
/// when it fails. A transaction that only read writes no WAL record, so the
/// commit costs no fsync (DESIGN.md §8.4).
fn in_txn<T>(db: &Database, f: impl FnOnce(&Txn) -> Result<T>) -> Result<T> {
    let txn = db.begin()?;
    match f(&txn) {
        Ok(v) => {
            txn.commit()?;
            Ok(v)
        }
        Err(e) => {
            let _ = txn.rollback();
            Err(e)
        }
    }
}

/// S-lock `docs` (in DocID order) in `txn`, then read each with `read`. A
/// document that is gone once its lock is granted — its insert rolled back,
/// or its delete committed, after the list was gathered — is skipped.
fn read_locked(
    txn: &Txn,
    table: &BaseTable,
    docs: &[DocId],
    mut read: impl FnMut(DocId) -> Result<()>,
) -> Result<()> {
    conc::lock_documents_shared(txn, table.def.id, docs)?;
    for &doc in docs {
        match read(doc) {
            Err(EngineError::NotFound { .. }) => {}
            r => r?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let b = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            c if c.is_ascii_whitespace() => i += 1,
            b'(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            b',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            b'*' => {
                out.push(Tok::Star);
                i += 1;
            }
            b'=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            b'\'' => {
                // SQL string with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(&c) = b.get(i) else {
                        return Err(EngineError::Invalid("unterminated string literal".into()));
                    };
                    if c == b'\'' {
                        if b.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(input[i..].chars().next().unwrap());
                        i += input[i..].chars().next().unwrap().len_utf8();
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let n: f64 = input[start..i]
                    .parse()
                    .map_err(|_| EngineError::Invalid("bad number".into()))?;
                out.push(Tok::Num(n));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(EngineError::Invalid(format!(
                    "unexpected character {:?} in SQL",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser / executor
// ---------------------------------------------------------------------------

/// A parsed SELECT projection.
enum Proj {
    /// `XMLQUERY('path' [PASSING column])`.
    Query {
        xpath: String,
        passing: Option<String>,
    },
    /// `XMLSERIALIZE([column])`.
    Serialize { col: Option<String> },
    /// `*`.
    Star,
    /// `XMLELEMENT(…)`, one constructed element per row.
    Construct(Ctor),
    /// `XMLAGG(XMLELEMENT(…) [ORDER BY column [ASC|DESC]])`.
    Agg {
        ctor: Ctor,
        order: Option<(String, bool)>,
    },
}

/// A parsed WHERE clause.
enum Filter {
    /// No filter.
    None,
    /// `WHERE XMLEXISTS('path')`.
    Exists(String),
    /// `WHERE XMLCONTAINS('terms')` — all terms, via the full-text index.
    Contains(String),
    /// `WHERE DOCID = n`.
    Doc(DocId),
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| EngineError::Invalid("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn kw(&mut self, word: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(s) if s.eq_ignore_ascii_case(word) => Ok(()),
            other => Err(EngineError::Invalid(format!(
                "expected {word}, found {other:?}"
            ))),
        }
    }

    fn is_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(word))
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(EngineError::Invalid(format!(
                "expected an identifier, found {other:?}"
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            other => Err(EngineError::Invalid(format!(
                "expected a string literal, found {other:?}"
            ))),
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(EngineError::Invalid(format!(
                "expected {t:?}, found {got:?}"
            )))
        }
    }

    fn end(&self) -> Result<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(EngineError::Invalid(format!(
                "trailing tokens after statement: {:?}",
                &self.toks[self.pos..]
            )))
        }
    }

    fn statement(&mut self, s: &Session) -> Result<Output> {
        match self.peek() {
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("CREATE") => self.create(s),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("REGISTER") => self.register(s),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("INSERT") => self.insert(s),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("SELECT") => self.select(s, false),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("DELETE") => self.delete(s),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("EXPLAIN") => {
                self.next()?;
                self.select(s, true)
            }
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("XQUERY") => {
                // XQUERY 'for … return …' ON table [(column)]
                self.next()?;
                let text = self.string()?;
                self.kw("ON")?;
                let tname = self.ident()?;
                let column = if self.peek() == Some(&Tok::LParen) {
                    self.next()?;
                    let c = self.ident()?;
                    self.expect(&Tok::RParen)?;
                    Some(c)
                } else {
                    None
                };
                self.end()?;
                let table = s.db.table(&tname)?;
                let col = Arc::clone(Self::xml_column_of(&table, column.as_deref())?);
                let flwor = crate::xquery::parse_flwor(&text, &rx_xpath::XPathParser::new())?;
                let out = in_txn(&s.db, |txn| {
                    crate::xquery::execute_flwor(&s.db, txn, &table, &col, &flwor)
                })?;
                Ok(Output::Xml(out))
            }
            other => Err(EngineError::Invalid(format!(
                "unsupported statement starting with {other:?}"
            ))),
        }
    }

    fn create(&mut self, s: &Session) -> Result<Output> {
        self.kw("CREATE")?;
        if self.is_kw("FULLTEXT") {
            // CREATE FULLTEXT INDEX f ON t (col) USING XPATH 'path'
            self.kw("FULLTEXT")?;
            self.kw("INDEX")?;
            let iname = self.ident()?;
            self.kw("ON")?;
            let tname = self.ident()?;
            self.expect(&Tok::LParen)?;
            let col = self.ident()?;
            self.expect(&Tok::RParen)?;
            self.kw("USING")?;
            self.kw("XPATH")?;
            let path = self.string()?;
            self.end()?;
            s.db.create_fulltext_index(&tname, &iname, &col, &path)?;
            return Ok(Output::Done);
        }
        if self.is_kw("TABLE") {
            self.kw("TABLE")?;
            let name = self.ident()?;
            self.expect(&Tok::LParen)?;
            let mut cols: Vec<(String, ColumnKind)> = Vec::new();
            loop {
                let cname = self.ident()?;
                let ty = self.ident()?;
                let kind = if ty.eq_ignore_ascii_case("XML") {
                    ColumnKind::Xml
                } else {
                    ColumnKind::Str
                };
                cols.push((cname, kind));
                match self.next()? {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(EngineError::Invalid(format!(
                            "expected ',' or ')', found {other:?}"
                        )))
                    }
                }
            }
            self.end()?;
            let refs: Vec<(&str, ColumnKind)> =
                cols.iter().map(|(n, k)| (n.as_str(), *k)).collect();
            s.db.create_table(&name, &refs)?;
            return Ok(Output::Done);
        }
        // CREATE INDEX i ON t (col) USING XPATH 'path' AS TYPE
        self.kw("INDEX")?;
        let iname = self.ident()?;
        self.kw("ON")?;
        let tname = self.ident()?;
        self.expect(&Tok::LParen)?;
        let col = self.ident()?;
        self.expect(&Tok::RParen)?;
        self.kw("USING")?;
        self.kw("XPATH")?;
        let path = self.string()?;
        self.kw("AS")?;
        let ty = self.ident()?;
        self.end()?;
        let key_type = match ty.to_ascii_uppercase().as_str() {
            "DOUBLE" => KeyType::Double,
            "DECIMAL" => KeyType::Decimal,
            "DATE" => KeyType::Date,
            "VARCHAR" | "STRING" => KeyType::String,
            other => {
                return Err(EngineError::Invalid(format!(
                    "unsupported index key type {other}"
                )))
            }
        };
        s.db.create_value_index(&tname, &iname, &col, &path, key_type)?;
        Ok(Output::Done)
    }

    fn register(&mut self, s: &Session) -> Result<Output> {
        self.kw("REGISTER")?;
        self.kw("SCHEMA")?;
        let name = self.ident()?;
        self.kw("AS")?;
        let xsd = self.string()?;
        self.end()?;
        s.db.register_schema(&name, &xsd)?;
        Ok(Output::Done)
    }

    fn insert(&mut self, s: &Session) -> Result<Output> {
        self.kw("INSERT")?;
        self.kw("INTO")?;
        let tname = self.ident()?;
        self.kw("VALUES")?;
        self.expect(&Tok::LParen)?;
        let table = s.db.table(&tname)?;
        let mut values = Vec::new();
        loop {
            match self.next()? {
                Tok::Str(v) => values.push(ColValue::Str(v)),
                Tok::Num(n) => values.push(ColValue::Str(rx_xml::value::format_double(n))),
                Tok::Ident(f) if f.eq_ignore_ascii_case("XML") => {
                    self.expect(&Tok::LParen)?;
                    let text = self.string()?;
                    self.expect(&Tok::RParen)?;
                    values.push(ColValue::Xml(text));
                }
                Tok::Ident(f) if f.eq_ignore_ascii_case("XMLVALIDATE") => {
                    self.expect(&Tok::LParen)?;
                    let text = self.string()?;
                    self.kw("ACCORDING")?;
                    self.kw("TO")?;
                    let schema = self.ident()?;
                    self.expect(&Tok::RParen)?;
                    values.push(ColValue::XmlValidated { text, schema });
                }
                other => {
                    return Err(EngineError::Invalid(format!(
                        "unsupported value expression {other:?}"
                    )))
                }
            }
            match self.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => {
                    return Err(EngineError::Invalid(format!(
                        "expected ',' or ')', found {other:?}"
                    )))
                }
            }
        }
        self.end()?;
        s.db.insert_row(&table, &values)?;
        Ok(Output::Count(1))
    }

    fn xml_column_of<'t>(
        table: &'t Arc<BaseTable>,
        name: Option<&str>,
    ) -> Result<&'t Arc<crate::db::XmlColumn>> {
        match name {
            Some(n) => table.xml_column(n),
            None => table
                .xml_columns()
                .first()
                .ok_or_else(|| EngineError::NotFound {
                    kind: "XML column",
                    name: format!("(any) in table {}", table.def.name),
                }),
        }
    }

    /// Parse a scalar value expression inside a constructor: a column name,
    /// a string literal, or `CONCAT(a, b, …)`.
    fn value_expr(&mut self, table: &Arc<BaseTable>) -> Result<ValueExpr> {
        match self.next()? {
            Tok::Str(s) => Ok(ValueExpr::Literal(s)),
            Tok::Num(n) => Ok(ValueExpr::Literal(rx_xml::value::format_double(n))),
            Tok::Ident(f) if f.eq_ignore_ascii_case("CONCAT") => {
                self.expect(&Tok::LParen)?;
                let mut parts = Vec::new();
                loop {
                    parts.push(self.value_expr(table)?);
                    match self.next()? {
                        Tok::Comma => continue,
                        Tok::RParen => break,
                        other => {
                            return Err(EngineError::Invalid(format!(
                                "expected ',' or ')' in CONCAT, found {other:?}"
                            )))
                        }
                    }
                }
                Ok(ValueExpr::Concat(parts))
            }
            Tok::Ident(col) => Ok(ValueExpr::Column(Self::column_slot(table, &col)?)),
            other => Err(EngineError::Invalid(format!(
                "expected a value expression, found {other:?}"
            ))),
        }
    }

    fn column_slot(table: &Arc<BaseTable>, name: &str) -> Result<usize> {
        table
            .def
            .columns
            .iter()
            .position(|c| c.name == name && c.kind == ColumnKind::Str)
            .ok_or_else(|| EngineError::NotFound {
                kind: "relational column",
                name: name.to_string(),
            })
    }

    /// Parse `(name AS alias, …)`-style pairs used by XMLATTRIBUTES/XMLFOREST.
    fn named_values(&mut self, table: &Arc<BaseTable>) -> Result<Vec<(String, ValueExpr)>> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        loop {
            let value = self.value_expr(table)?;
            let alias = if self.is_kw("AS") {
                self.kw("AS")?;
                self.ident()?
            } else if let ValueExpr::Column(i) = value {
                table.def.columns[i].name.clone()
            } else {
                return Err(EngineError::Invalid(
                    "non-column expressions need an AS alias".into(),
                ));
            };
            out.push((alias, value));
            match self.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => {
                    return Err(EngineError::Invalid(format!(
                        "expected ',' or ')', found {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Parse `XMLELEMENT(NAME n, [XMLATTRIBUTES(...)], content…)` — the §4.1
    /// publishing functions. `self.pos` sits after the XMLELEMENT keyword.
    fn xmlelement(&mut self, table: &Arc<BaseTable>) -> Result<Ctor> {
        self.expect(&Tok::LParen)?;
        self.kw("NAME")?;
        let name = self.ident()?;
        let mut attrs: Vec<CtorAttr> = Vec::new();
        let mut content: Vec<Ctor> = Vec::new();
        loop {
            match self.next()? {
                Tok::RParen => break,
                Tok::Comma => {}
                other => {
                    return Err(EngineError::Invalid(format!(
                        "expected ',' or ')' in XMLELEMENT, found {other:?}"
                    )))
                }
            }
            match self.peek() {
                Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("XMLATTRIBUTES") => {
                    self.next()?;
                    for (alias, value) in self.named_values(table)? {
                        attrs.push(CtorAttr { name: alias, value });
                    }
                }
                Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("XMLFOREST") => {
                    self.next()?;
                    content.push(Ctor::Forest(self.named_values(table)?));
                }
                Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("XMLELEMENT") => {
                    self.next()?;
                    content.push(self.xmlelement(table)?);
                }
                Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("XMLCOMMENT") => {
                    self.next()?;
                    self.expect(&Tok::LParen)?;
                    let v = self.value_expr(table)?;
                    self.expect(&Tok::RParen)?;
                    content.push(Ctor::Comment(v));
                }
                _ => content.push(Ctor::Text(self.value_expr(table)?)),
            }
        }
        Ok(Ctor::Element {
            name,
            attrs,
            content,
        })
    }

    fn select(&mut self, s: &Session, explain_only: bool) -> Result<Output> {
        self.kw("SELECT")?;
        let proj = match self.next()? {
            Tok::Star => Proj::Star,
            Tok::Ident(f) if f.eq_ignore_ascii_case("XMLELEMENT") => {
                // Constructors need the table's columns; peek ahead for FROM.
                let ctor_start = self.pos - 1;
                let table_name = Self::table_after_from(&self.toks)?;
                let table = s.db.table(&table_name)?;
                self.pos = ctor_start + 1;
                Proj::Construct(self.xmlelement(&table)?)
            }
            Tok::Ident(f) if f.eq_ignore_ascii_case("XMLAGG") => {
                let table_name = Self::table_after_from(&self.toks)?;
                let table = s.db.table(&table_name)?;
                self.expect(&Tok::LParen)?;
                self.kw("XMLELEMENT")?;
                let ctor = self.xmlelement(&table)?;
                let order = if self.is_kw("ORDER") {
                    self.kw("ORDER")?;
                    self.kw("BY")?;
                    let col = self.ident()?;
                    let desc = if self.is_kw("DESC") {
                        self.kw("DESC")?;
                        true
                    } else {
                        if self.is_kw("ASC") {
                            self.kw("ASC")?;
                        }
                        false
                    };
                    Some((col, desc))
                } else {
                    None
                };
                self.expect(&Tok::RParen)?;
                Proj::Agg { ctor, order }
            }
            Tok::Ident(f) if f.eq_ignore_ascii_case("XMLQUERY") => {
                self.expect(&Tok::LParen)?;
                let xpath = self.string()?;
                let passing = if self.is_kw("PASSING") {
                    self.kw("PASSING")?;
                    Some(self.ident()?)
                } else {
                    None
                };
                self.expect(&Tok::RParen)?;
                Proj::Query { xpath, passing }
            }
            Tok::Ident(f) if f.eq_ignore_ascii_case("XMLSERIALIZE") => {
                self.expect(&Tok::LParen)?;
                let col = match self.next()? {
                    Tok::Ident(c) => Some(c),
                    Tok::RParen => None,
                    other => {
                        return Err(EngineError::Invalid(format!(
                            "bad XMLSERIALIZE argument {other:?}"
                        )))
                    }
                };
                if col.is_some() {
                    self.expect(&Tok::RParen)?;
                }
                Proj::Serialize { col }
            }
            other => {
                return Err(EngineError::Invalid(format!(
                    "unsupported projection {other:?}"
                )))
            }
        };
        self.kw("FROM")?;
        let tname = self.ident()?;
        let table = s.db.table(&tname)?;
        // Optional WHERE clause.
        let mut filter = Filter::None;
        if self.is_kw("WHERE") {
            self.kw("WHERE")?;
            match self.next()? {
                Tok::Ident(w) if w.eq_ignore_ascii_case("XMLEXISTS") => {
                    self.expect(&Tok::LParen)?;
                    let xp = self.string()?;
                    self.expect(&Tok::RParen)?;
                    filter = Filter::Exists(xp);
                }
                Tok::Ident(w) if w.eq_ignore_ascii_case("XMLCONTAINS") => {
                    self.expect(&Tok::LParen)?;
                    let terms = self.string()?;
                    self.expect(&Tok::RParen)?;
                    filter = Filter::Contains(terms);
                }
                Tok::Ident(w) if w.eq_ignore_ascii_case("DOCID") => {
                    self.expect(&Tok::Eq)?;
                    match self.next()? {
                        Tok::Num(n) => filter = Filter::Doc(n as DocId),
                        other => {
                            return Err(EngineError::Invalid(format!(
                                "expected a DocID number, found {other:?}"
                            )))
                        }
                    }
                }
                other => {
                    return Err(EngineError::Invalid(format!(
                        "unsupported WHERE clause {other:?}"
                    )))
                }
            }
        }
        self.end()?;
        if explain_only {
            // EXPLAIN only plans: it reads no document and takes no lock.
            let (xpath, passing) = match (&proj, &filter) {
                (Proj::Query { xpath, passing }, _) => (xpath, passing.as_deref()),
                (_, Filter::Exists(xp)) => (xp, None),
                _ => {
                    return Err(EngineError::Invalid(
                        "EXPLAIN needs an XMLQUERY or XMLEXISTS path".into(),
                    ))
                }
            };
            let col = Self::xml_column_of(&table, passing)?;
            let path = XPathParser::new().parse(xpath)?;
            return Ok(Output::Explain(access::plan(&path, col, false).explain()));
        }
        in_txn(&s.db, |txn| {
            Self::run_select(&s.db, txn, &table, proj, filter)
        })
    }

    /// Evaluate a parsed SELECT in `txn`. Every document it reads is
    /// S-locked in `txn` first: XPath reads through `query_locked` or, over
    /// a candidate list, `access::evaluate_docs`; row fetches and
    /// serialization through [`read_locked`].
    fn run_select(
        db: &Arc<Database>,
        txn: &Txn,
        table: &Arc<BaseTable>,
        proj: Proj,
        filter: Filter,
    ) -> Result<Output> {
        let dict = db.dict();
        match proj {
            Proj::Query { xpath, passing } => {
                let col = Self::xml_column_of(table, passing.as_deref())?;
                let path = XPathParser::new().parse(&xpath)?;
                let docs = match filter {
                    Filter::None => {
                        let (hits, _) = db.query_locked(txn, table, col, &path, false)?;
                        return Ok(Output::Sequence(hits));
                    }
                    Filter::Exists(_) => {
                        return Err(EngineError::Invalid(
                            "combine the XMLEXISTS predicate into the XMLQUERY path instead".into(),
                        ))
                    }
                    // A DocID or full-text candidate list: evaluate the path
                    // per document.
                    Filter::Doc(_) | Filter::Contains(_) => {
                        Self::filter_docs(db, txn, table, &filter)?
                    }
                };
                let tree = Arc::new(rx_xpath::QueryTree::compile(&path)?);
                let exec = db.executor();
                let lanes = access::fan_out_lanes(Some(exec), docs.len());
                let mut stats = access::AccessStats::default();
                let hits = access::evaluate_docs(
                    Some(exec),
                    lanes,
                    txn,
                    table,
                    col,
                    dict,
                    &tree,
                    docs,
                    &mut stats,
                )?;
                Ok(Output::Sequence(hits))
            }
            Proj::Serialize { col } => {
                let name = Self::xml_column_of(table, col.as_deref())?.name.clone();
                let docs = Self::filter_docs(db, txn, table, &filter)?;
                let mut out = Vec::with_capacity(docs.len());
                read_locked(txn, table, &docs, |d| {
                    out.push((d, db.serialize_document(table, &name, d)?));
                    Ok(())
                })?;
                Ok(Output::Documents(out))
            }
            Proj::Star => Ok(Output::Rows(Self::filtered_rows(db, txn, table, &filter)?)),
            Proj::Construct(ctor) => {
                let rows = Self::filtered_rows(db, txn, table, &filter)?;
                let tpl = Template::compile(&ctor, dict)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let c = Constructed::new(Arc::clone(&tpl), row.values)?;
                    out.push(c.to_xml(dict)?);
                }
                Ok(Output::Xml(out))
            }
            Proj::Agg { ctor, order } => {
                let rows = Self::filtered_rows(db, txn, table, &filter)?;
                let tpl = Template::compile(&ctor, dict)?;
                let order_by = match order {
                    Some((col, desc)) => Some((Self::column_slot(table, &col)?, desc)),
                    None => None,
                };
                let mut agg = XmlAgg::new(tpl, order_by);
                for row in rows {
                    agg.push(row.values);
                }
                Ok(Output::Xml(vec![agg.finish_to_xml(dict)?]))
            }
        }
    }

    /// Tokens of the FROM table for look-ahead during constructor parsing.
    fn table_after_from(toks: &[Tok]) -> Result<String> {
        let mut it = toks.iter().peekable();
        while let Some(t) = it.next() {
            if matches!(t, Tok::Ident(w) if w.eq_ignore_ascii_case("FROM")) {
                if let Some(Tok::Ident(name)) = it.next() {
                    return Ok(name.clone());
                }
            }
        }
        Err(EngineError::Invalid("missing FROM clause".into()))
    }

    /// Documents whose full-text index contains all `terms` (AND semantics
    /// across the column's full-text indexes: any index may satisfy).
    fn contains_docs(table: &Arc<BaseTable>, terms: &str) -> Result<Vec<DocId>> {
        let col = Self::xml_column_of(table, None)?;
        let ftis = col.fulltext_indexes();
        if ftis.is_empty() {
            return Err(EngineError::NotFound {
                kind: "full-text index",
                name: format!("on table {}", table.def.name),
            });
        }
        let mut docs: Vec<DocId> = Vec::new();
        for fti in &ftis {
            docs.extend(fti.search_all_terms(terms)?);
        }
        docs.sort_unstable();
        docs.dedup();
        Ok(docs)
    }

    /// Candidate documents of the WHERE clause, in DocID order. Only the
    /// `XMLEXISTS` list is locked here (by `query_locked`); callers read
    /// every list through [`read_locked`] or `access::evaluate_docs`.
    fn filter_docs(
        db: &Database,
        txn: &Txn,
        table: &Arc<BaseTable>,
        filter: &Filter,
    ) -> Result<Vec<DocId>> {
        Ok(match filter {
            Filter::None => access::all_docids(table)?,
            Filter::Doc(d) => vec![*d],
            Filter::Exists(xp) => {
                let col = Self::xml_column_of(table, None)?;
                let path = XPathParser::new().parse(xp)?;
                let (hits, _) = db.query_locked(txn, table, col, &path, false)?;
                let mut docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
                docs.dedup();
                docs
            }
            Filter::Contains(terms) => Self::contains_docs(table, terms)?,
        })
    }

    /// Rows of `table` surviving the WHERE clause.
    fn filtered_rows(
        db: &Database,
        txn: &Txn,
        table: &Arc<BaseTable>,
        filter: &Filter,
    ) -> Result<Vec<Row>> {
        let docs = Self::filter_docs(db, txn, table, filter)?;
        let mut rows = Vec::with_capacity(docs.len());
        read_locked(txn, table, &docs, |d| {
            rows.extend(db.fetch_row(table, d)?);
            Ok(())
        })?;
        Ok(rows)
    }

    fn delete(&mut self, s: &Session) -> Result<Output> {
        self.kw("DELETE")?;
        self.kw("FROM")?;
        let tname = self.ident()?;
        let table = s.db.table(&tname)?;
        self.kw("WHERE")?;
        self.kw("DOCID")?;
        self.expect(&Tok::Eq)?;
        let doc = match self.next()? {
            Tok::Num(n) => n as DocId,
            other => {
                return Err(EngineError::Invalid(format!(
                    "expected a DocID number, found {other:?}"
                )))
            }
        };
        self.end()?;
        let removed = s.db.delete_row(&table, doc)?;
        Ok(Output::Count(u64::from(removed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(Database::create_in_memory().unwrap())
    }

    #[test]
    fn ddl_insert_query_roundtrip() {
        let s = session();
        s.execute("CREATE TABLE products (sku VARCHAR, doc XML)")
            .unwrap();
        s.execute("CREATE INDEX price_idx ON products (doc) USING XPATH '/c/p/price' AS DOUBLE")
            .unwrap();
        s.execute("INSERT INTO products VALUES ('A', XML('<c><p><price>10</price></p></c>'))")
            .unwrap();
        s.execute("INSERT INTO products VALUES ('B', XML('<c><p><price>99</price></p></c>'))")
            .unwrap();
        let out = s
            .execute("SELECT XMLQUERY('/c/p[price > 50]') FROM products")
            .unwrap();
        match out {
            Output::Sequence(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].value, "99");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn xmlexists_returns_rows() {
        let s = session();
        s.execute("CREATE TABLE t (tag VARCHAR, doc XML)").unwrap();
        s.execute("INSERT INTO t VALUES ('one', XML('<r><v>1</v></r>'))")
            .unwrap();
        s.execute("INSERT INTO t VALUES ('two', XML('<r><v>2</v></r>'))")
            .unwrap();
        let out = s
            .execute("SELECT * FROM t WHERE XMLEXISTS('/r[v = 2]')")
            .unwrap();
        match out {
            Output::Rows(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].values[0], "two");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serialize_and_delete() {
        let s = session();
        s.execute("CREATE TABLE t (doc XML)").unwrap();
        s.execute("INSERT INTO t VALUES (XML('<a><b>x</b></a>'))")
            .unwrap();
        let out = s
            .execute("SELECT XMLSERIALIZE(doc) FROM t WHERE DOCID = 1")
            .unwrap();
        match out {
            Output::Documents(docs) => {
                assert_eq!(docs[0].1, "<a><b>x</b></a>");
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.execute("DELETE FROM t WHERE DOCID = 1").unwrap() {
            Output::Count(1) => {}
            other => panic!("unexpected {other:?}"),
        }
        match s.execute("SELECT * FROM t").unwrap() {
            Output::Rows(rows) => assert!(rows.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_shows_access_path() {
        let s = session();
        s.execute("CREATE TABLE t (doc XML)").unwrap();
        s.execute("CREATE INDEX i ON t (doc) USING XPATH '/r/v' AS DOUBLE")
            .unwrap();
        s.execute("INSERT INTO t VALUES (XML('<r><v>5</v></r>'))")
            .unwrap();
        let out = s
            .execute("EXPLAIN SELECT XMLQUERY('/r[v > 1]') FROM t")
            .unwrap();
        match out {
            Output::Explain(text) => {
                assert!(text.contains("DocID list access"), "{text}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unindexed query explains as a scan.
        let out = s
            .execute("EXPLAIN SELECT XMLQUERY('/r[w = 1]') FROM t")
            .unwrap();
        match out {
            Output::Explain(text) => assert!(text.contains("FULL SCAN"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_plans_without_reading() {
        let s = session();
        s.execute("CREATE TABLE t (doc XML)").unwrap();
        let t = s.db().table("t").unwrap();
        // An open insert holds X on its document: a statement that read it
        // would wait for the writer, EXPLAIN answers at once.
        let writer = s.db().begin().unwrap();
        s.db()
            .insert_row_txn(&writer, &t, &[ColValue::Xml("<r><v>1</v></r>".into())])
            .unwrap();
        match s
            .execute("EXPLAIN SELECT * FROM t WHERE XMLEXISTS('/r[v = 1]')")
            .unwrap()
        {
            Output::Explain(text) => assert!(text.contains("FULL SCAN"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.execute("EXPLAIN SELECT * FROM t").is_err(), "no path");
        writer.rollback().unwrap();
    }

    #[test]
    fn validated_insert_via_sql() {
        let s = session();
        s.execute("CREATE TABLE t (doc XML)").unwrap();
        s.execute(concat!(
            "REGISTER SCHEMA simple AS '",
            "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">",
            "<xs:element name=\"r\" type=\"xs:integer\"/>",
            "</xs:schema>'"
        ))
        .unwrap();
        s.execute("INSERT INTO t VALUES (XMLVALIDATE('<r>42</r>' ACCORDING TO simple))")
            .unwrap();
        assert!(s
            .execute("INSERT INTO t VALUES (XMLVALIDATE('<r>nope</r>' ACCORDING TO simple))")
            .is_err());
    }

    #[test]
    fn string_escaping() {
        let s = session();
        s.execute("CREATE TABLE t (doc XML)").unwrap();
        s.execute("INSERT INTO t VALUES (XML('<a t=\"x\">it''s</a>'))")
            .unwrap();
        match s
            .execute("SELECT XMLSERIALIZE(doc) FROM t WHERE DOCID = 1")
            .unwrap()
        {
            Output::Documents(d) => assert_eq!(d[0].1, "<a t=\"x\">it's</a>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        let s = session();
        assert!(s.execute("DROP TABLE x").is_err());
        assert!(s.execute("SELECT").is_err());
        assert!(s.execute("CREATE TABLE t (doc XML) extra").is_err());
        assert!(s.execute("SELECT * FROM missing").is_err());
    }
}

#[cfg(test)]
mod publish_tests {
    use super::*;

    fn session_with_emps() -> Session {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE emps (id VARCHAR, fname VARCHAR, lname VARCHAR, dept VARCHAR)")
            .unwrap();
        for (id, f, l, d) in [
            ("1234", "John", "Doe", "Accting"),
            ("1235", "Ada", "Lovelace", "Math"),
            ("1236", "Edgar", "Codd", "Databases"),
        ] {
            s.execute(&format!(
                "INSERT INTO emps VALUES ('{id}', '{f}', '{l}', '{d}')"
            ))
            .unwrap();
        }
        s
    }

    #[test]
    fn xmlelement_per_row_matches_fig5() {
        let s = session_with_emps();
        // The paper's §4.1 example, spelled in SQL.
        let out = s
            .execute(
                "SELECT XMLELEMENT(NAME Emp, \
                   XMLATTRIBUTES(id AS id, CONCAT(fname, ' ', lname) AS name), \
                   XMLFOREST(dept AS department)) FROM emps",
            )
            .unwrap();
        match out {
            Output::Xml(rows) => {
                assert_eq!(rows.len(), 3);
                assert_eq!(
                    rows[0],
                    r#"<Emp id="1234" name="John Doe"><department>Accting</department></Emp>"#
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn xmlagg_order_by() {
        let s = session_with_emps();
        let out = s
            .execute("SELECT XMLAGG(XMLELEMENT(NAME d, dept) ORDER BY dept) FROM emps")
            .unwrap();
        match out {
            Output::Xml(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0], "<d>Accting</d><d>Databases</d><d>Math</d>");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Descending.
        let out = s
            .execute("SELECT XMLAGG(XMLELEMENT(NAME d, dept) ORDER BY dept DESC) FROM emps")
            .unwrap();
        match out {
            Output::Xml(v) => assert!(v[0].starts_with("<d>Math</d>")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_elements_and_filters() {
        let s = session_with_emps();
        let out = s
            .execute(
                "SELECT XMLELEMENT(NAME r, XMLELEMENT(NAME inner, fname)) \
                 FROM emps WHERE DOCID = 2",
            )
            .unwrap();
        match out {
            Output::Xml(rows) => {
                assert_eq!(rows, vec!["<r><inner>Ada</inner></r>".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn construct_errors() {
        let s = session_with_emps();
        // Unknown column.
        assert!(s
            .execute("SELECT XMLELEMENT(NAME x, salary) FROM emps")
            .is_err());
        // XMLAGG must wrap an XMLELEMENT.
        assert!(s.execute("SELECT XMLAGG(dept) FROM emps").is_err());
        // Missing NAME keyword.
        assert!(s.execute("SELECT XMLELEMENT(Emp, id) FROM emps").is_err());
    }

    #[test]
    fn construct_over_xmlexists_filter() {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE t (tag VARCHAR, doc XML)").unwrap();
        s.execute("INSERT INTO t VALUES ('hot', XML('<r><v>9</v></r>'))")
            .unwrap();
        s.execute("INSERT INTO t VALUES ('cold', XML('<r><v>1</v></r>'))")
            .unwrap();
        let out = s
            .execute("SELECT XMLELEMENT(NAME pick, tag) FROM t WHERE XMLEXISTS('/r[v > 5]')")
            .unwrap();
        match out {
            Output::Xml(rows) => assert_eq!(rows, vec!["<pick>hot</pick>".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod fulltext_sql_tests {
    use super::*;

    #[test]
    fn xmlcontains_end_to_end() {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE docs (title VARCHAR, doc XML)")
            .unwrap();
        s.execute("CREATE FULLTEXT INDEX ft ON docs (doc) USING XPATH '//Description'")
            .unwrap();
        s.execute(
            "INSERT INTO docs VALUES ('a', XML('<p><Description>durable portable widget</Description></p>'))",
        )
        .unwrap();
        s.execute(
            "INSERT INTO docs VALUES ('b', XML('<p><Description>enterprise gadget</Description></p>'))",
        )
        .unwrap();
        // Single + multi term.
        match s
            .execute("SELECT * FROM docs WHERE XMLCONTAINS('portable')")
            .unwrap()
        {
            Output::Rows(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].values[0], "a");
            }
            other => panic!("unexpected {other:?}"),
        }
        match s
            .execute("SELECT * FROM docs WHERE XMLCONTAINS('durable widget')")
            .unwrap()
        {
            Output::Rows(rows) => assert_eq!(rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match s
            .execute("SELECT * FROM docs WHERE XMLCONTAINS('durable gadget')")
            .unwrap()
        {
            Output::Rows(rows) => assert!(rows.is_empty(), "terms span documents"),
            other => panic!("unexpected {other:?}"),
        }
        // Combined with a projection path.
        match s
            .execute("SELECT XMLQUERY('/p/Description') FROM docs WHERE XMLCONTAINS('gadget')")
            .unwrap()
        {
            Output::Sequence(hits) => {
                assert_eq!(hits.len(), 1);
                assert!(hits[0].value.contains("enterprise"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Postings follow deletes.
        s.execute("DELETE FROM docs WHERE DOCID = 1").unwrap();
        match s
            .execute("SELECT * FROM docs WHERE XMLCONTAINS('portable')")
            .unwrap()
        {
            Output::Rows(rows) => assert!(rows.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn xmlcontains_without_index_errors() {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE d (doc XML)").unwrap();
        s.execute("INSERT INTO d VALUES (XML('<a>x</a>'))").unwrap();
        assert!(s.execute("SELECT * FROM d WHERE XMLCONTAINS('x')").is_err());
    }
}

#[cfg(test)]
mod xquery_sql_tests {
    use super::*;

    #[test]
    fn flwor_through_the_session() {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE c (doc XML)").unwrap();
        for (n, p) in [("A", 5), ("B", 50)] {
            s.execute(&format!(
                "INSERT INTO c VALUES (XML('<r><i><n>{n}</n><p>{p}</p></i></r>'))"
            ))
            .unwrap();
        }
        match s
            .execute("XQUERY 'for $i in /r/i where $i/p > 10 return <big>{ $i/n }</big>' ON c")
            .unwrap()
        {
            Output::Xml(v) => assert_eq!(v, vec!["<big>B</big>"]),
            other => panic!("unexpected {other:?}"),
        }
        // Explicit column form.
        match s
            .execute("XQUERY 'for $i in /r/i return <n>{ $i/n }</n>' ON c (doc)")
            .unwrap()
        {
            Output::Xml(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod empty_edge_tests {
    use super::*;

    #[test]
    fn aggregates_and_queries_over_empty_tables() {
        let s = Session::new(Database::create_in_memory().unwrap());
        s.execute("CREATE TABLE e (name VARCHAR, doc XML)").unwrap();
        match s
            .execute("SELECT XMLAGG(XMLELEMENT(NAME n, name) ORDER BY name) FROM e")
            .unwrap()
        {
            Output::Xml(v) => assert_eq!(v, vec![String::new()]),
            other => panic!("unexpected {other:?}"),
        }
        match s.execute("SELECT XMLQUERY('/r/v') FROM e").unwrap() {
            Output::Sequence(hits) => assert!(hits.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match s.execute("SELECT * FROM e").unwrap() {
            Output::Rows(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match s
            .execute("XQUERY 'for $x in /r return <y>{ $x }</y>' ON e")
            .unwrap()
        {
            Output::Xml(v) => assert!(v.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
