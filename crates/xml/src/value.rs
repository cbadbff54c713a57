//! XDM atomic values and order-preserving index-key encodings.
//!
//! §3.3: XPath value indexes convert node string values to a typed key —
//! "a few simple types supported, such as double, string, and date" — and
//! §4.3: "we use decimal floating-point number based on the new IEEE 754r for
//! numeric value indexing, which provides precise values within its range."
//!
//! [`Decimal`] is that decimal floating point: an exact sign/coefficient/
//! exponent triple with decimal parsing, exact comparison, and an
//! order-preserving byte encoding so B+tree byte order equals numeric order.

use crate::error::{Result, XmlError};
use std::cmp::Ordering;
use std::fmt;

/// Schema type annotation carried on tokens after validation (§3.2: the token
/// stream is "optionally with type annotation if a document is
/// Schema-validated").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum TypeAnn {
    /// No schema information.
    #[default]
    Untyped = 0,
    /// xs:string.
    String = 1,
    /// xs:double.
    Double = 2,
    /// xs:decimal (IEEE 754r-style decimal float).
    Decimal = 3,
    /// xs:boolean.
    Boolean = 4,
    /// xs:date.
    Date = 5,
    /// xs:integer.
    Integer = 6,
}

impl TypeAnn {
    /// Decode from the byte stored in token streams / packed records.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => TypeAnn::Untyped,
            1 => TypeAnn::String,
            2 => TypeAnn::Double,
            3 => TypeAnn::Decimal,
            4 => TypeAnn::Boolean,
            5 => TypeAnn::Date,
            6 => TypeAnn::Integer,
            other => {
                return Err(XmlError::stream(format!(
                    "bad type annotation byte {other}"
                )))
            }
        })
    }
}

/// The key types an XPath value index can be declared with (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KeyType {
    /// Lexicographic string keys (SQL VARCHAR equivalent).
    String = 1,
    /// IEEE-754 double keys.
    Double = 2,
    /// Exact decimal keys (the paper's IEEE 754r choice).
    Decimal = 3,
    /// Calendar date keys.
    Date = 4,
}

impl KeyType {
    /// Decode from a stored byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => KeyType::String,
            2 => KeyType::Double,
            3 => KeyType::Decimal,
            4 => KeyType::Date,
            other => return Err(XmlError::stream(format!("bad key type byte {other}"))),
        })
    }
}

/// An exact decimal floating-point number: `sign * coeff * 10^exp` with
/// `coeff >= 0` normalized to have no trailing zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decimal {
    neg: bool,
    coeff: u128,
    exp: i32,
}

impl Decimal {
    /// Zero.
    pub const ZERO: Decimal = Decimal {
        neg: false,
        coeff: 0,
        exp: 0,
    };

    /// Parse decimal syntax: optional sign, digits, optional fraction,
    /// optional exponent (`-12.50e3`).
    pub fn parse(s: &str) -> Result<Self> {
        let t = s.trim();
        let bytes = t.as_bytes();
        if bytes.is_empty() {
            return Err(XmlError::Cast {
                value: s.to_string(),
                target: "decimal",
            });
        }
        let mut i = 0usize;
        let neg = match bytes[0] {
            b'-' => {
                i = 1;
                true
            }
            b'+' => {
                i = 1;
                false
            }
            _ => false,
        };
        let mut coeff: u128 = 0;
        let mut exp: i32 = 0;
        let mut digits = 0u32;
        let mut seen_dot = false;
        let mut any = false;
        while i < bytes.len() {
            match bytes[i] {
                b'0'..=b'9' => {
                    any = true;
                    digits += 1;
                    if digits > 34 {
                        // 754r decimal128 carries 34 significant digits; drop
                        // further precision (round toward zero).
                        if !seen_dot {
                            exp += 1;
                        }
                    } else {
                        coeff = coeff * 10 + u128::from(bytes[i] - b'0');
                        if seen_dot {
                            exp -= 1;
                        }
                    }
                    i += 1;
                }
                b'.' if !seen_dot => {
                    seen_dot = true;
                    i += 1;
                }
                b'e' | b'E' => {
                    let etail = &t[i + 1..];
                    let e: i32 = etail.parse().map_err(|_| XmlError::Cast {
                        value: s.to_string(),
                        target: "decimal",
                    })?;
                    exp += e;
                    i = bytes.len();
                }
                _ => {
                    return Err(XmlError::Cast {
                        value: s.to_string(),
                        target: "decimal",
                    })
                }
            }
        }
        if !any {
            return Err(XmlError::Cast {
                value: s.to_string(),
                target: "decimal",
            });
        }
        Ok(Decimal { neg, coeff, exp }.normalized())
    }

    fn normalized(mut self) -> Self {
        if self.coeff == 0 {
            return Decimal::ZERO;
        }
        while self.coeff.is_multiple_of(10) {
            self.coeff /= 10;
            self.exp += 1;
        }
        self
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.coeff == 0
    }

    /// Approximate as binary double (lossy, used only for display fallbacks).
    pub fn to_f64(&self) -> f64 {
        let m = self.coeff as f64;
        let v = m * 10f64.powi(self.exp);
        if self.neg {
            -v
        } else {
            v
        }
    }

    fn digit_count(mut c: u128) -> i32 {
        let mut n = 0;
        while c > 0 {
            c /= 10;
            n += 1;
        }
        n
    }

    /// The decimal "adjusted exponent": position of the leading digit, i.e.
    /// the E in `0.d1d2... * 10^E`.
    fn magnitude(&self) -> i32 {
        Self::digit_count(self.coeff) + self.exp
    }

    fn digits(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut c = self.coeff;
        while c > 0 {
            out.push((c % 10) as u8);
            c /= 10;
        }
        out.reverse();
        out
    }

    /// Exact numeric comparison.
    pub fn compare(&self, other: &Decimal) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => return Ordering::Equal,
            (true, false) => {
                return if other.neg {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, true) => {
                return if self.neg {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            _ => {}
        }
        match (self.neg, other.neg) {
            (false, true) => return Ordering::Greater,
            (true, false) => return Ordering::Less,
            _ => {}
        }
        let mag = self.magnitude().cmp(&other.magnitude());
        let by_abs = if mag != Ordering::Equal {
            mag
        } else {
            // Same magnitude: compare digit strings.
            let (da, db) = (self.digits(), other.digits());
            let n = da.len().max(db.len());
            let mut ord = Ordering::Equal;
            for i in 0..n {
                let x = da.get(i).copied().unwrap_or(0);
                let y = db.get(i).copied().unwrap_or(0);
                match x.cmp(&y) {
                    Ordering::Equal => continue,
                    o => {
                        ord = o;
                        break;
                    }
                }
            }
            ord
        };
        if self.neg {
            by_abs.reverse()
        } else {
            by_abs
        }
    }

    /// Order-preserving byte encoding: byte-lexicographic comparison of
    /// encodings equals [`Decimal::compare`]. Layout:
    /// `[class][magnitude as offset-u32 BE][digit bytes][terminator]`, with
    /// every byte after the class inverted for negatives.
    pub fn sort_key(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0x80];
        }
        let mut tail = Vec::with_capacity(40);
        let mag = (self.magnitude() as i64 + 0x8000_0000) as u32;
        tail.extend_from_slice(&mag.to_be_bytes());
        for d in self.digits() {
            tail.push(d + 1); // 1..=10, keeps 0x00 free as terminator
        }
        tail.push(0x00);
        let mut out = Vec::with_capacity(tail.len() + 1);
        if self.neg {
            out.push(0x40);
            out.extend(tail.iter().map(|b| !b));
        } else {
            out.push(0xC0);
            out.extend_from_slice(&tail);
        }
        out
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        self.compare(other)
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.neg {
            write!(f, "-")?;
        }
        let digits = self.digits();
        let point = digits.len() as i32 + self.exp; // digits before the point
        if self.exp >= 0 {
            for d in &digits {
                write!(f, "{d}")?;
            }
            for _ in 0..self.exp {
                write!(f, "0")?;
            }
        } else if point > 0 {
            for (i, d) in digits.iter().enumerate() {
                if i as i32 == point {
                    write!(f, ".")?;
                }
                write!(f, "{d}")?;
            }
        } else {
            write!(f, "0.")?;
            for _ in 0..(-point) {
                write!(f, "0")?;
            }
            for d in &digits {
                write!(f, "{d}")?;
            }
        }
        Ok(())
    }
}

/// A calendar date (xs:date without timezone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31.
    pub day: u8,
}

impl Date {
    /// Parse `YYYY-MM-DD` (optionally negative years).
    pub fn parse(s: &str) -> Result<Self> {
        let t = s.trim();
        let err = || XmlError::Cast {
            value: s.to_string(),
            target: "date",
        };
        let (ys, rest) = if let Some(stripped) = t.strip_prefix('-') {
            let i = stripped.find('-').ok_or_else(err)?;
            (&t[..i + 1], &stripped[i + 1..])
        } else {
            let i = t.find('-').ok_or_else(err)?;
            (&t[..i], &t[i + 1..])
        };
        let mut parts = rest.split('-');
        let ms = parts.next().ok_or_else(err)?;
        let ds = parts.next().ok_or_else(err)?;
        if parts.next().is_some() {
            return Err(err());
        }
        let year: i32 = ys.parse().map_err(|_| err())?;
        let month: u8 = ms.parse().map_err(|_| err())?;
        let day: u8 = ds.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(err());
        }
        Ok(Date { year, month, day })
    }

    /// Order-preserving byte encoding.
    pub fn sort_key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6);
        out.extend_from_slice(&((self.year as i64 + 0x8000_0000) as u32).to_be_bytes());
        out.push(self.month);
        out.push(self.day);
        out
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Order-preserving byte encoding of an IEEE-754 double (total order; NaN
/// sorts above everything).
pub fn double_sort_key(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    let ordered = if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000_0000_0000
    };
    ordered.to_be_bytes()
}

/// Convert a node's string value into index-key bytes for the given key type.
/// Returns `None` when the value does not cast (the node simply produces no
/// index entry, as extended indexes allow zero entries per record, §3.3).
/// NaN casts to no key either: every comparison with NaN is false, so a NaN
/// entry could only ever produce false hits (its key sorts above +inf, inside
/// every `> x` range).
pub fn encode_key(ty: KeyType, value: &str) -> Option<Vec<u8>> {
    match ty {
        KeyType::String => Some(value.as_bytes().to_vec()),
        KeyType::Double => {
            let v: f64 = value.trim().parse().ok()?;
            if v.is_nan() {
                return None;
            }
            Some(double_sort_key(v).to_vec())
        }
        KeyType::Decimal => Some(Decimal::parse(value).ok()?.sort_key()),
        KeyType::Date => Some(Date::parse(value).ok()?.sort_key()),
    }
}

/// An atomic value as produced by XPath evaluation and constructor arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    /// A string (also the representation of untyped atomics).
    String(String),
    /// A binary double.
    Double(f64),
    /// An exact decimal.
    Decimal(Decimal),
    /// A boolean.
    Boolean(bool),
    /// A date.
    Date(Date),
    /// A 64-bit integer.
    Integer(i64),
}

impl AtomicValue {
    /// The string value (XPath `string()`).
    pub fn string_value(&self) -> String {
        match self {
            AtomicValue::String(s) => s.clone(),
            AtomicValue::Double(d) => format_double(*d),
            AtomicValue::Decimal(d) => d.to_string(),
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Date(d) => d.to_string(),
            AtomicValue::Integer(i) => i.to_string(),
        }
    }

    /// Numeric view (XPath `number()`): strings parse, booleans map to 0/1.
    pub fn to_double(&self) -> Option<f64> {
        match self {
            AtomicValue::String(s) => s.trim().parse().ok(),
            AtomicValue::Double(d) => Some(*d),
            AtomicValue::Decimal(d) => Some(d.to_f64()),
            AtomicValue::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            AtomicValue::Date(_) => None,
            AtomicValue::Integer(i) => Some(*i as f64),
        }
    }

    /// General comparison with numeric promotion: if either side is numeric,
    /// compare numerically; dates compare as dates; otherwise as strings.
    pub fn compare(&self, other: &AtomicValue) -> Option<Ordering> {
        use AtomicValue::*;
        match (self, other) {
            (Decimal(a), Decimal(b)) => Some(a.compare(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (String(a), String(b)) => Some(a.cmp(b)),
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.to_double()?;
                let b = other.to_double()?;
                a.partial_cmp(&b)
            }
        }
    }
}

/// Format a double the XPath way: integers without a fraction part.
pub fn format_double(d: f64) -> String {
    if d.fract() == 0.0 && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_and_display() {
        for (s, disp) in [
            ("0", "0"),
            ("000", "0"),
            ("42", "42"),
            ("-42", "-42"),
            ("3.14", "3.14"),
            ("-0.5", "-0.5"),
            ("100", "100"),
            ("0.001", "0.001"),
            ("12.50", "12.5"),
            ("1e3", "1000"),
            ("2.5e-2", "0.025"),
            ("-1.5E2", "-150"),
        ] {
            assert_eq!(Decimal::parse(s).unwrap().to_string(), disp, "input {s}");
        }
        assert!(Decimal::parse("abc").is_err());
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
    }

    #[test]
    fn decimal_exactness() {
        // 0.1 + base cases that are inexact in binary are exact here.
        let a = Decimal::parse("0.1").unwrap();
        let b = Decimal::parse("0.10000").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.compare(&b), Ordering::Equal);
    }

    #[test]
    fn decimal_compare() {
        let cases = [
            ("1", "2", Ordering::Less),
            ("2", "1", Ordering::Greater),
            ("-1", "1", Ordering::Less),
            ("-2", "-1", Ordering::Less),
            ("0", "0.0", Ordering::Equal),
            ("0.5", "0.25", Ordering::Greater),
            ("10", "9.999", Ordering::Greater),
            ("-10", "-9.999", Ordering::Less),
            ("123.456", "123.456", Ordering::Equal),
            ("1e10", "9e9", Ordering::Greater),
            ("0.001", "0.0009999", Ordering::Greater),
            ("-0", "0", Ordering::Equal),
        ];
        for (a, b, ord) in cases {
            let (da, db) = (Decimal::parse(a).unwrap(), Decimal::parse(b).unwrap());
            assert_eq!(da.compare(&db), ord, "{a} vs {b}");
        }
    }

    #[test]
    fn decimal_sort_key_preserves_order() {
        let values = [
            "-1e10", "-123.5", "-123.456", "-1", "-0.5", "-0.001", "0", "0.0005", "0.001", "0.25",
            "0.5", "1", "1.5", "2", "9.999", "10", "123.456", "123.5", "1e10",
        ];
        let decs: Vec<Decimal> = values.iter().map(|s| Decimal::parse(s).unwrap()).collect();
        for i in 0..decs.len() {
            for j in 0..decs.len() {
                let byte_ord = decs[i].sort_key().cmp(&decs[j].sort_key());
                assert_eq!(
                    byte_ord,
                    decs[i].compare(&decs[j]),
                    "{} vs {}",
                    values[i],
                    values[j]
                );
            }
        }
    }

    #[test]
    fn date_parse_and_order() {
        let a = Date::parse("2005-06-16").unwrap();
        let b = Date::parse("2005-06-17").unwrap();
        let c = Date::parse("1999-12-31").unwrap();
        assert!(a < b);
        assert!(c < a);
        assert!(a.sort_key() < b.sort_key());
        assert!(c.sort_key() < a.sort_key());
        assert_eq!(a.to_string(), "2005-06-16");
        assert!(Date::parse("2005-13-01").is_err());
        assert!(Date::parse("not-a-date").is_err());
    }

    #[test]
    fn double_key_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            1.5,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                double_sort_key(w[0]) <= double_sort_key(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn encode_key_handles_bad_casts() {
        assert!(encode_key(KeyType::Double, "199.99").is_some());
        assert!(encode_key(KeyType::Double, "cheap").is_none());
        for nan in ["NaN", "nan", " -NaN "] {
            assert!(encode_key(KeyType::Double, nan).is_none(), "{nan}");
        }
        assert!(encode_key(KeyType::Double, "inf").is_some());
        assert!(encode_key(KeyType::Date, "2004-02-29").is_some());
        assert!(encode_key(KeyType::Date, "soon").is_none());
        assert!(encode_key(KeyType::String, "anything").is_some());
        assert!(encode_key(KeyType::Decimal, "1.25").is_some());
    }

    #[test]
    fn atomic_comparison_promotes() {
        let s = AtomicValue::String("300".into());
        let d = AtomicValue::Double(250.0);
        assert_eq!(s.compare(&d), Some(Ordering::Greater));
        assert_eq!(
            AtomicValue::String("XML".into()).compare(&AtomicValue::String("XML".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(AtomicValue::String("abc".into()).compare(&d), None);
    }

    #[test]
    fn format_double_xpath_style() {
        assert_eq!(format_double(300.0), "300");
        assert_eq!(format_double(0.5), "0.5");
        assert_eq!(format_double(-2.0), "-2");
    }
}
