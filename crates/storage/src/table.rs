//! A small table abstraction over a fast-hash open-addressing map.
//!
//! `Table` holds the rows of a hashed [`crate::KvStore`]: byte-string
//! keys and values in std's SwissTable (open addressing, quadratic
//! probing) with the Fx hash function from `hcc_common::hash` instead of
//! SipHash. For the microbenchmark's 8-byte keys this cuts the per-probe
//! cost to a few cycles, which is most of what the paper's
//! single-partition fast path does.

use bytes::Bytes;
use hcc_common::FxHashMap;

/// A byte-string → byte-string hash table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    map: FxHashMap<Bytes, Bytes>,
}

impl Table {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for `n` rows (the loaders know the row count up front, so
    /// steady state never rehashes).
    pub fn with_capacity(n: usize) -> Self {
        Table {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.map.get(key)
    }

    /// Mutable access to an existing row — the probe-once path for
    /// read-modify-write, which would otherwise hash the key twice.
    #[inline]
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut Bytes> {
        self.map.get_mut(key)
    }

    #[inline]
    pub fn insert(&mut self, key: Bytes, value: Bytes) -> Option<Bytes> {
        self.map.insert(key, value)
    }

    #[inline]
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        self.map.remove(key)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Bytes)> {
        self.map.iter()
    }

    /// Every row, moved out (a store switching to ordered mode).
    pub fn into_rows(self) -> impl Iterator<Item = (Bytes, Bytes)> {
        self.map.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn basic_ops() {
        let mut t = Table::with_capacity(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(b(b"k"), b(b"v1")), None);
        assert_eq!(t.insert(b(b"k"), b(b"v2")), Some(b(b"v1")));
        assert_eq!(t.get(b"k"), Some(&b(b"v2")));
        *t.get_mut(b"k").unwrap() = b(b"v3");
        assert_eq!(t.remove(b"k"), Some(b(b"v3")));
        assert_eq!(t.len(), 0);
    }
}
