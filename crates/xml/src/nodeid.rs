//! Dewey prefix-encoded node IDs (§3.1).
//!
//! "Node IDs are prefix encoded as Dewey IDs in such a way that they are
//! stable upon update. Basically, a relative node ID ends with an
//! even-numbered byte; and any odd-numbered byte means that the relative ID is
//! extended to the next byte. The absolute node ID of a node is the
//! concatenation of relative node IDs along the path from the root to the
//! node. The root node ID is an exception, which is always 00, so it is
//! implicit in the absolute node IDs. String comparison on the node IDs
//! provides document order. And there is always space for insertion in the
//! middle by extending the node ID length when necessary."
//!
//! Consequences of the encoding, all relied on elsewhere:
//!
//! * relative IDs are **self-delimiting** (odd byte ⇒ continue, even ⇒ stop),
//!   so no sibling's relative ID is a byte prefix of another's;
//! * therefore **byte-prefix testing on absolute IDs is the ancestor test**
//!   (§5.2 proposes it for subtree locking; here it keeps NodeID-list
//!   results under their anchors);
//! * plain byte comparison of absolute IDs is **document order**;
//! * between any two sibling IDs a fresh sibling ID can be generated without
//!   renumbering ([`RelId::between`]), which makes sub-document insertion
//!   stable.

use crate::error::{Result, XmlError};
use std::fmt;

/// First relative ID handed to the first child of any node.
pub const FIRST_CHILD: u8 = 0x02;

/// A relative node ID: zero or more odd bytes followed by exactly one even
/// byte.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(Vec<u8>);

impl RelId {
    /// The canonical first-sibling ID, `[0x02]`.
    pub fn first() -> Self {
        RelId(vec![FIRST_CHILD])
    }

    /// Wrap raw bytes, validating well-formedness.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::validate(bytes)?;
        Ok(RelId(bytes.to_vec()))
    }

    /// Check that raw bytes form a well-formed relative ID, without copying
    /// them (decoders that hand out borrowed IDs).
    pub fn validate(bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Err(XmlError::NodeId {
                message: "relative node ID cannot be empty".into(),
            });
        }
        let (last, init) = bytes.split_last().unwrap();
        if last % 2 != 0 {
            return Err(XmlError::NodeId {
                message: format!("relative node ID must end on an even byte, got {last:#04x}"),
            });
        }
        if let Some(b) = init.iter().find(|b| *b % 2 == 0) {
            return Err(XmlError::NodeId {
                message: format!("interior byte {b:#04x} of a relative node ID must be odd"),
            });
        }
        if bytes.contains(&0x00) {
            return Err(XmlError::NodeId {
                message: "byte 0x00 is reserved for the implicit root ID".into(),
            });
        }
        Ok(())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Generate the conventional next sibling ID *after* `self` (used when
    /// appending during initial document construction: 02, 04, …, FC, FE,
    /// FF 02, FF 04, …).
    pub fn next_sibling(&self) -> RelId {
        let mut b = self.0.clone();
        let last = *b.last().unwrap();
        if last <= 0xFC {
            *b.last_mut().unwrap() = last + 2;
        } else {
            // 0xFE: extend — replace the final even byte with odd 0xFF and a
            // fresh final byte.
            *b.last_mut().unwrap() = 0xFF;
            b.push(FIRST_CHILD);
        }
        RelId(b)
    }

    /// Generate an ID strictly *before* `self` (insert as new first sibling).
    pub fn before(&self) -> RelId {
        let c = self.0[0];
        if c >= 0x04 {
            // An even byte two below the first byte always sorts earlier.
            let v = if c.is_multiple_of(2) { c - 2 } else { c - 1 };
            RelId(vec![v])
        } else if c == 0x02 {
            // Whole ID is [0x02]: descend below it with an odd 0x01 extension.
            RelId(vec![0x01, FIRST_CHILD])
        } else {
            // c is odd 0x01 or 0x03 and the ID continues: keep the byte and
            // recurse into the suffix (always terminates: suffixes shrink).
            let suffix = RelId(self.0[1..].to_vec());
            let mut v = vec![c];
            v.extend_from_slice(&suffix.before().0);
            RelId(v)
        }
    }

    /// Generate an ID strictly *after* `self` (insert as new last sibling;
    /// unlike [`RelId::next_sibling`] this never skips conventional slots, it
    /// just guarantees order).
    pub fn after(&self) -> RelId {
        self.next_sibling()
    }

    /// Generate an ID strictly between `a` and `b` (`a < b` required). The
    /// result is well-formed and never equal to either bound — this is the
    /// paper's "always space for insertion in the middle by extending the
    /// node ID length when necessary".
    pub fn between(a: &RelId, b: &RelId) -> Result<RelId> {
        if a >= b {
            return Err(XmlError::NodeId {
                message: format!("between() requires a < b, got {a:?} >= {b:?}"),
            });
        }
        let (ab, bb) = (&a.0, &b.0);
        // Well-formed sibling IDs are never prefixes of each other, so the
        // first differing byte exists in both.
        let i = ab
            .iter()
            .zip(bb.iter())
            .position(|(x, y)| x != y)
            .expect("well-formed relative IDs are prefix-free");
        let (ca, cb) = (ab[i], bb[i]);
        let prefix = &ab[..i];
        let d = cb - ca;
        if d >= 2 {
            // Room for a byte strictly between: prefer an even byte (ends the
            // ID); otherwise take the odd midpoint and extend.
            let lo = ca + 1;
            let even = if lo % 2 == 0 { lo } else { lo + 1 };
            if even < cb {
                let mut v = prefix.to_vec();
                v.push(even);
                return Ok(RelId(v));
            }
            let mut v = prefix.to_vec();
            v.push(lo); // odd, since even == lo+1 >= cb
            v.push(FIRST_CHILD);
            return Ok(RelId(v));
        }
        // d == 1: no byte fits between ca and cb at position i.
        if cb % 2 == 1 {
            // b continues after i: slide in just below b's continuation.
            let suffix = RelId::from_bytes(&bb[i + 1..])?;
            let below = suffix.before();
            let mut v = prefix.to_vec();
            v.push(cb);
            v.extend_from_slice(&below.0);
            Ok(RelId(v))
        } else {
            // cb is even, so ca = cb-1 is odd and a continues after i: slide
            // in just above a's continuation.
            let suffix = RelId::from_bytes(&ab[i + 1..])?;
            let above = suffix.after();
            let mut v = prefix.to_vec();
            v.push(ca);
            v.extend_from_slice(&above.0);
            Ok(RelId(v))
        }
    }
}

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RelId(")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// An absolute node ID: the concatenation of relative IDs from the root down
/// to the node. The document root itself is the empty ID (the paper's
/// implicit `00`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(Vec<u8>);

impl NodeId {
    /// The document root's ID.
    pub fn root() -> Self {
        NodeId(Vec::new())
    }

    /// Wrap raw absolute-ID bytes, validating that they parse into a whole
    /// number of well-formed relative IDs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let id = NodeId(bytes.to_vec());
        id.levels()?; // validates
        Ok(id)
    }

    /// Wrap raw bytes without validation (hot paths reading trusted storage).
    pub fn from_bytes_unchecked(bytes: Vec<u8>) -> Self {
        NodeId(bytes)
    }

    /// The raw bytes. Byte order = document order; byte prefix = ancestry.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// True for the document root.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Extend with one more level.
    pub fn child(&self, rel: &RelId) -> NodeId {
        let mut v = Vec::with_capacity(self.0.len() + rel.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&rel.0);
        NodeId(v)
    }

    /// Split into per-level relative IDs ("the relative node ID of each level
    /// can be recovered from the absolute node ID").
    pub fn levels(&self) -> Result<Vec<RelId>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for (i, b) in self.0.iter().enumerate() {
            if b % 2 == 0 {
                out.push(RelId(self.0[start..=i].to_vec()));
                start = i + 1;
            }
        }
        if start != self.0.len() {
            return Err(XmlError::NodeId {
                message: "absolute node ID has a dangling odd-byte tail".into(),
            });
        }
        Ok(out)
    }

    /// Depth below the root (number of levels).
    pub fn depth(&self) -> usize {
        self.0.iter().filter(|b| *b % 2 == 0).count()
    }

    /// The parent's ID (`None` for the root).
    pub fn parent(&self) -> Option<NodeId> {
        if self.0.is_empty() {
            return None;
        }
        // Drop the final relative ID: scan back past the last even byte to
        // the previous even byte (or the start).
        let mut i = self.0.len() - 1; // final byte, even
        while i > 0 && self.0[i - 1] % 2 == 1 {
            i -= 1;
        }
        Some(NodeId(self.0[..i].to_vec()))
    }

    /// Is `self` a (strict or equal) ancestor-or-self of `other`? Pure byte
    /// prefix test.
    pub fn is_ancestor_or_self(&self, other: &NodeId) -> bool {
        other.0.starts_with(&self.0)
    }

    /// Is `self` a strict ancestor of `other`?
    pub fn is_ancestor(&self, other: &NodeId) -> bool {
        self.0.len() < other.0.len() && other.0.starts_with(&self.0)
    }

    /// The last relative ID (this node's ID within its parent); `None` for root.
    pub fn last_level(&self) -> Option<RelId> {
        self.levels().ok()?.pop()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "NodeId(root)");
        }
        write!(f, "NodeId(")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "")?;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(bytes: &[u8]) -> RelId {
        RelId::from_bytes(bytes).unwrap()
    }

    #[test]
    fn wellformedness() {
        assert!(RelId::from_bytes(&[0x02]).is_ok());
        assert!(RelId::from_bytes(&[0x03, 0x02]).is_ok());
        assert!(RelId::from_bytes(&[0xFF, 0xFF, 0x04]).is_ok());
        assert!(RelId::from_bytes(&[]).is_err());
        assert!(RelId::from_bytes(&[0x03]).is_err()); // ends odd
        assert!(RelId::from_bytes(&[0x02, 0x04]).is_err()); // interior even
    }

    #[test]
    fn next_sibling_sequence() {
        let mut id = RelId::first();
        let mut prev = id.clone();
        for _ in 0..300 {
            id = id.next_sibling();
            assert!(prev < id, "{prev:?} < {id:?}");
            assert!(RelId::from_bytes(id.as_bytes()).is_ok());
            prev = id.clone();
        }
        // After 0xFE the encoding extends.
        let fe = rel(&[0xFE]);
        assert_eq!(fe.next_sibling(), rel(&[0xFF, 0x02]));
    }

    #[test]
    fn before_is_smaller() {
        for start in [&[0x02][..], &[0x04], &[0x03, 0x02], &[0xFE]] {
            let s = rel(start);
            let b = s.before();
            assert!(b < s, "{b:?} < {s:?}");
            assert!(RelId::from_bytes(b.as_bytes()).is_ok());
        }
        // Repeated prepending always works.
        let mut s = RelId::first();
        for _ in 0..50 {
            let b = s.before();
            assert!(b < s);
            s = b;
        }
    }

    #[test]
    fn between_basic_cases() {
        // Paper-style gap: between 02 and 04 there is 03 02.
        let m = RelId::between(&rel(&[0x02]), &rel(&[0x04])).unwrap();
        assert!(rel(&[0x02]) < m && m < rel(&[0x04]), "{m:?}");
        // Wide gap uses a single even byte.
        let m = RelId::between(&rel(&[0x02]), &rel(&[0x08])).unwrap();
        assert_eq!(m, rel(&[0x04]));
        // Adjacent with b continuing.
        let m = RelId::between(&rel(&[0x02]), &rel(&[0x03, 0x02])).unwrap();
        assert!(rel(&[0x02]) < m && m < rel(&[0x03, 0x02]), "{m:?}");
        // Adjacent with a continuing.
        let m = RelId::between(&rel(&[0x03, 0x02]), &rel(&[0x04])).unwrap();
        assert!(rel(&[0x03, 0x02]) < m && m < rel(&[0x04]), "{m:?}");
        // Error on misuse.
        assert!(RelId::between(&rel(&[0x04]), &rel(&[0x02])).is_err());
    }

    #[test]
    fn between_stress_repeated_bisection() {
        // Keep inserting between the same two neighbours: IDs stay ordered
        // and well-formed, growing in length as the paper describes.
        let mut lo = rel(&[0x02]);
        let hi = rel(&[0x04]);
        for _ in 0..64 {
            let mid = RelId::between(&lo, &hi).unwrap();
            assert!(lo < mid && mid < hi, "{lo:?} < {mid:?} < {hi:?}");
            assert!(RelId::from_bytes(mid.as_bytes()).is_ok());
            lo = mid;
        }
        let mut hi2 = rel(&[0x04]);
        let lo2 = rel(&[0x02]);
        for _ in 0..64 {
            let mid = RelId::between(&lo2, &hi2).unwrap();
            assert!(lo2 < mid && mid < hi2);
            hi2 = mid;
        }
    }

    #[test]
    fn absolute_ids_and_levels() {
        let root = NodeId::root();
        assert!(root.is_root());
        assert_eq!(root.depth(), 0);
        let a = root.child(&rel(&[0x02]));
        let b = a.child(&rel(&[0x03, 0x02]));
        let c = b.child(&rel(&[0x04]));
        assert_eq!(c.as_bytes(), &[0x02, 0x03, 0x02, 0x04]);
        assert_eq!(c.depth(), 3);
        let levels = c.levels().unwrap();
        assert_eq!(levels, vec![rel(&[0x02]), rel(&[0x03, 0x02]), rel(&[0x04])]);
        assert_eq!(c.parent().unwrap(), b);
        assert_eq!(b.parent().unwrap(), a);
        assert_eq!(a.parent().unwrap(), root);
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn ancestry_is_prefix_test() {
        let root = NodeId::root();
        let a = root.child(&rel(&[0x02]));
        let b = a.child(&rel(&[0x04]));
        let sib = root.child(&rel(&[0x04]));
        assert!(root.is_ancestor(&a));
        assert!(a.is_ancestor(&b));
        assert!(a.is_ancestor_or_self(&a));
        assert!(!a.is_ancestor(&a));
        assert!(!a.is_ancestor(&sib));
        assert!(!sib.is_ancestor(&b));
    }

    #[test]
    fn document_order_is_byte_order() {
        // A tree laid out in document order must yield ascending IDs:
        // root, a(02), a/x(02 02), a/y(02 04), b(04), b/z(04 02).
        let ids = [
            NodeId::root(),
            NodeId::from_bytes(&[0x02]).unwrap(),
            NodeId::from_bytes(&[0x02, 0x02]).unwrap(),
            NodeId::from_bytes(&[0x02, 0x04]).unwrap(),
            NodeId::from_bytes(&[0x04]).unwrap(),
            NodeId::from_bytes(&[0x04, 0x02]).unwrap(),
        ];
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn inserted_sibling_sorts_before_next_siblings_descendants() {
        // Descendants of node 02 (e.g. 02 06 04) must still sort before an
        // ID inserted between 02 and 04 (e.g. 03 02).
        let deep = NodeId::from_bytes(&[0x02, 0x06, 0x04]).unwrap();
        let mid_rel = RelId::between(&rel(&[0x02]), &rel(&[0x04])).unwrap();
        let inserted = NodeId::root().child(&mid_rel);
        assert!(deep < inserted);
        assert!(inserted < NodeId::from_bytes(&[0x04]).unwrap());
    }

    #[test]
    fn dangling_tail_rejected() {
        assert!(NodeId::from_bytes(&[0x02, 0x03]).is_err());
        assert!(NodeId::from_bytes(&[0x03]).is_err());
        assert!(NodeId::from_bytes(&[0x02, 0x04, 0xFF]).is_err());
    }
}
