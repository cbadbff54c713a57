//! A fast hasher for maps keyed by small engine-chosen identifiers:
//! DocIDs, table-space ids, transaction ids and lock names. Keys like these
//! never come from a client, so hash flooding is not a concern, and SipHash
//! would be a measurable share of a lookup that hashes a few integers (the
//! document cache probes per warm read, the lock table per granted lock).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative mix of every integer written into it.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

/// `BuildHasher` for [`IdHasher`], for `HashMap<K, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;
