//! An exact least-recently-used map with O(1) lookup, insert, remove and
//! eviction, shared by the document record cache and the plan cache.
//!
//! A hash map takes each key to a slot of a slab, and the slots are threaded
//! on a doubly linked recency list (most recent at the head). A lookup
//! unlinks its slot and relinks it at the head; eviction pops the tail. No
//! operation but [`Lru::retain`] visits more than one entry, so a full cache
//! never scans itself to pick a victim.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Index of "no slot" in the recency links.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    /// `None` while the slot is on the free list.
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// A map that remembers the order its entries were last used in. Keys are
/// stored twice (map and slot), so they should be cheap to clone: small
/// `Copy` keys or `Arc`s.
pub struct Lru<K, V, S = RandomState> {
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Default for Lru<K, V, S> {
    fn default() -> Self {
        Lru {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Lru<K, V, S> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.slots[i].entry.as_mut().expect("linked slot is live").1
    }

    /// The value for `key`, which becomes the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.value_mut(i))
    }

    /// The value for `key`, leaving the recency order alone (for tests that
    /// check residency without disturbing the order).
    #[cfg(test)]
    pub(crate) fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.map.get(key)?;
        self.slots[i].entry.as_ref().map(|(_, v)| v)
    }

    /// Insert or replace `key` as the most recently used entry, returning
    /// the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&i) = self.map.get(&key) {
            let old = std::mem::replace(self.value_mut(i), value);
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return Some(old);
        }
        let slot = Slot {
            entry: Some((key.clone(), value)),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
        None
    }

    fn take_slot(&mut self, i: usize) -> (K, V) {
        self.unlink(i);
        self.free.push(i);
        self.slots[i].entry.take().expect("linked slot is live")
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.map.remove(key)?;
        Some(self.take_slot(i).1)
    }

    /// Remove and return the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let (k, v) = self.take_slot(self.tail);
        self.map.remove(&k);
        Some((k, v))
    }

    /// Keep only the entries `keep` accepts; the survivors keep their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i].next;
            let (k, v) = self.slots[i].entry.as_ref().expect("linked slot is live");
            if !keep(k, v) {
                let (k, _) = self.take_slot(i);
                self.map.remove(&k);
            }
            i = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A model LRU: keys from least to most recently used.
    fn check(lru: &Lru<u32, u32>, model: &VecDeque<u32>) {
        assert_eq!(lru.len(), model.len());
        let mut order = Vec::new();
        let mut i = lru.tail;
        while i != NIL {
            order.push(lru.slots[i].entry.as_ref().unwrap().0);
            i = lru.slots[i].prev;
        }
        assert_eq!(order, model.iter().copied().collect::<Vec<_>>());
        for k in model {
            assert_eq!(lru.peek(k), Some(&(k * 10)));
        }
    }

    #[test]
    fn order_matches_a_model_over_many_operations() {
        let mut lru: Lru<u32, u32> = Lru::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 300) as u32;
            let touch = |model: &mut VecDeque<u32>| {
                model.retain(|&k| k != key);
                model.push_back(key);
            };
            match (x >> 20) % 5 {
                0 | 1 => {
                    let had = model.contains(&key);
                    assert_eq!(lru.insert(key, key * 10).is_some(), had);
                    touch(&mut model);
                }
                2 => {
                    let had = model.contains(&key);
                    assert_eq!(lru.get(&key).is_some(), had);
                    if had {
                        touch(&mut model);
                    }
                }
                3 => {
                    let had = model.contains(&key);
                    assert_eq!(lru.remove(&key), had.then_some(key * 10));
                    model.retain(|&k| k != key);
                }
                _ => {
                    assert_eq!(lru.pop_lru().map(|(k, _)| k), model.pop_front());
                }
            }
            check(&lru, &model);
        }
        lru.retain(|k, _| k % 3 != 0);
        model.retain(|k| k % 3 != 0);
        check(&lru, &model);
    }
}
