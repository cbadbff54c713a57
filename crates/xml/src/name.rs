//! The database-wide name dictionary.
//!
//! §3.1: "In the stored XML data, all the names for elements, attributes, and
//! namespaces are encoded using integers across the entire database." This
//! module interns strings (namespace URIs, prefixes, local names) as
//! [`StrId`]s and qualified names as [`QNameId`]s. Both directions are O(1);
//! the dictionary is thread-safe and can be exported/imported for persistence
//! in the catalog.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Interned string id.
pub type StrId = u32;
/// Interned qualified-name id (the paper's integer name encoding).
pub type QNameId = u32;

/// The reserved [`StrId`] for the empty string ("no namespace", "no prefix").
pub const EMPTY_STR: StrId = 0;

/// A resolved qualified name: namespace URI, original prefix, local name —
/// each as an interned string.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct QName {
    /// Namespace URI ([`EMPTY_STR`] = no namespace).
    pub uri: StrId,
    /// Original lexical prefix ([`EMPTY_STR`] = none); kept for faithful
    /// serialization, ignored for name equality.
    pub prefix: StrId,
    /// Local name.
    pub local: StrId,
}

#[derive(Default)]
struct Inner {
    strings: Vec<Arc<str>>,
    by_string: HashMap<Arc<str>, StrId>,
    qnames: Vec<QName>,
    by_qname: HashMap<QName, QNameId>,
    /// (uri, local) → representative QNameId, for prefix-insensitive lookup.
    by_expanded: HashMap<(StrId, StrId), QNameId>,
}

/// Thread-safe interning dictionary for names.
pub struct NameDict {
    inner: RwLock<Inner>,
}

impl Default for NameDict {
    fn default() -> Self {
        Self::new()
    }
}

impl NameDict {
    /// Create a dictionary with the empty string pre-interned as id 0.
    pub fn new() -> Self {
        let mut inner = Inner::default();
        let empty: Arc<str> = Arc::from("");
        inner.strings.push(empty.clone());
        inner.by_string.insert(empty, EMPTY_STR);
        NameDict {
            inner: RwLock::new(inner),
        }
    }

    /// Intern a string.
    pub fn intern_str(&self, s: &str) -> StrId {
        if s.is_empty() {
            return EMPTY_STR;
        }
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.by_string.get(s) {
                return id;
            }
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_string.get(s) {
            return id;
        }
        let id = inner.strings.len() as StrId;
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(arc.clone());
        inner.by_string.insert(arc, id);
        id
    }

    /// Resolve an interned string.
    pub fn str(&self, id: StrId) -> Arc<str> {
        self.inner.read().strings[id as usize].clone()
    }

    /// Intern a qualified name from its lexical parts.
    pub fn intern(&self, uri: &str, prefix: &str, local: &str) -> QNameId {
        let q = QName {
            uri: self.intern_str(uri),
            prefix: self.intern_str(prefix),
            local: self.intern_str(local),
        };
        self.intern_qname(q)
    }

    /// Intern an already-resolved [`QName`].
    pub fn intern_qname(&self, q: QName) -> QNameId {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.by_qname.get(&q) {
                return id;
            }
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_qname.get(&q) {
            return id;
        }
        let id = inner.qnames.len() as QNameId;
        inner.qnames.push(q);
        inner.by_qname.insert(q, id);
        inner.by_expanded.entry((q.uri, q.local)).or_insert(id);
        id
    }

    /// Resolve a [`QNameId`] to its parts.
    pub fn qname(&self, id: QNameId) -> QName {
        self.inner.read().qnames[id as usize]
    }

    /// The local name of a qname as a string.
    pub fn local_of(&self, id: QNameId) -> Arc<str> {
        let q = self.qname(id);
        self.str(q.local)
    }

    /// Do two qname ids denote the same *expanded* name (uri + local),
    /// regardless of prefix? This is XPath/XQuery name equality.
    pub fn same_name(&self, a: QNameId, b: QNameId) -> bool {
        if a == b {
            return true;
        }
        let inner = self.inner.read();
        let (qa, qb) = (inner.qnames[a as usize], inner.qnames[b as usize]);
        qa.uri == qb.uri && qa.local == qb.local
    }

    /// Does qname `id` expand to `(uri, local)` given as strings? Used by
    /// XPath name tests.
    pub fn matches(&self, id: QNameId, uri: &str, local: &str) -> bool {
        let inner = self.inner.read();
        let q = inner.qnames[id as usize];
        inner.strings[q.local as usize].as_ref() == local
            && inner.strings[q.uri as usize].as_ref() == uri
    }

    /// Does qname `id` have local name `local` (any namespace)?
    pub fn matches_local(&self, id: QNameId, local: &str) -> bool {
        let inner = self.inner.read();
        let q = inner.qnames[id as usize];
        inner.strings[q.local as usize].as_ref() == local
    }

    /// Number of interned strings (for persistence and tests).
    pub fn string_count(&self) -> usize {
        self.inner.read().strings.len()
    }

    /// Number of interned qnames.
    pub fn qname_count(&self) -> usize {
        self.inner.read().qnames.len()
    }

    /// Export the dictionary contents for persistence: the strings from id
    /// `strings_from` on and the qnames from id `qnames_from` on, each in id
    /// order (`(0, 0)` exports everything).
    pub fn export_from(
        &self,
        strings_from: usize,
        qnames_from: usize,
    ) -> (Vec<Arc<str>>, Vec<QName>) {
        let inner = self.inner.read();
        (
            inner
                .strings
                .get(strings_from..)
                .unwrap_or_default()
                .to_vec(),
            inner.qnames.get(qnames_from..).unwrap_or_default().to_vec(),
        )
    }

    /// Rebuild a dictionary from exported contents (ids are preserved).
    pub fn import(strings: &[String], qnames: &[QName]) -> Self {
        let mut inner = Inner::default();
        for s in strings {
            let arc: Arc<str> = Arc::from(s.as_str());
            let id = inner.strings.len() as StrId;
            inner.strings.push(arc.clone());
            inner.by_string.insert(arc, id);
        }
        for &q in qnames {
            let id = inner.qnames.len() as QNameId;
            inner.qnames.push(q);
            inner.by_qname.insert(q, id);
            inner.by_expanded.entry((q.uri, q.local)).or_insert(id);
        }
        if inner.strings.is_empty() {
            let empty: Arc<str> = Arc::from("");
            inner.strings.push(empty.clone());
            inner.by_string.insert(empty, EMPTY_STR);
        }
        NameDict {
            inner: RwLock::new(inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let d = NameDict::new();
        let a = d.intern_str("product");
        let b = d.intern_str("product");
        assert_eq!(a, b);
        assert_eq!(d.str(a).as_ref(), "product");
        assert_ne!(d.intern_str("catalog"), a);
    }

    #[test]
    fn empty_string_is_zero() {
        let d = NameDict::new();
        assert_eq!(d.intern_str(""), EMPTY_STR);
        assert_eq!(d.str(EMPTY_STR).as_ref(), "");
    }

    #[test]
    fn qname_equality_ignores_prefix() {
        let d = NameDict::new();
        let a = d.intern("urn:cat", "c", "Product");
        let b = d.intern("urn:cat", "cat", "Product");
        let c = d.intern("urn:other", "c", "Product");
        assert_ne!(a, b, "different prefixes are distinct qname ids");
        assert!(d.same_name(a, b), "...but the same expanded name");
        assert!(!d.same_name(a, c));
        assert!(d.matches(a, "urn:cat", "Product"));
        assert!(!d.matches(a, "", "Product"));
        assert!(d.matches_local(c, "Product"));
    }

    #[test]
    fn export_import_roundtrip() {
        let d = NameDict::new();
        let q1 = d.intern("urn:x", "", "a");
        let q2 = d.intern("", "", "b");
        let (strings, qnames) = d.export_from(0, 0);
        let strings: Vec<String> = strings.iter().map(|s| s.to_string()).collect();
        let d2 = NameDict::import(&strings, &qnames);
        assert_eq!(d2.qname(q1), d.qname(q1));
        assert_eq!(d2.qname(q2), d.qname(q2));
        assert_eq!(d2.intern("urn:x", "", "a"), q1);
        // A tail export holds exactly the entries past the given ids.
        let (tail, qtail) = d.export_from(d.string_count() - 1, 1);
        assert_eq!(tail.len(), 1);
        assert_eq!(qtail, vec![d.qname(q2)]);
        assert_eq!(d.export_from(99, 99), (Vec::new(), Vec::new()));
    }

    #[test]
    fn concurrent_interning() {
        let d = Arc::new(NameDict::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        let id = d.intern_str(&format!("name-{}", i % 50));
                        assert_eq!(d.str(id).as_ref(), format!("name-{}", i % 50));
                    }
                });
            }
        });
        assert_eq!(d.string_count(), 51); // 50 names + ""
    }
}
