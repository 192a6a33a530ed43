//! An ordered key view over a hash-table store, for range scans.
//!
//! The paper's microbenchmark engine is a pure hash table: every
//! fragment is a point read or write, so nothing in the seed system can
//! express a *range* — yet fragment length is exactly the axis §5 says
//! separates blocking from speculation (long fragments hold partitions
//! hostage under blocking and make mis-speculation expensive). The
//! ordered view makes scans a first-class storage operation:
//! [`crate::KvStore`] keeps an [`OrderedIndex`] of its keys in byte
//! order next to the open-addressing [`crate::Table`], maintained by
//! every mutation path — including undo replay, so rollback and the
//! birth-ordered committed-state `snapshot()` (§3.3 recovery) preserve
//! the index exactly.
//!
//! Since the vertical-scale PR the index is backed by a **lock-free
//! skiplist** ([`crate::skiplist::SkipList`]) instead of a `BTreeSet`:
//! every operation takes `&self`, scans are epoch-pinned instead of
//! copying, and concurrent readers never serialize against writers. In
//! unit-test builds every index carries a `BTreeSet` **differential
//! oracle** — a shadow copy checked after each mutation — so any
//! divergence between the skiplist and the reference semantics fails
//! loudly in the storage test suite while costing release builds nothing.
//!
//! The index is opt-in: engines that never scan (the paper's original
//! microbenchmark, the point-read YCSB-B mix) pay nothing, which keeps
//! the golden fixed-seed results and the hot-path numbers untouched.

use crate::skiplist::SkipList;
use bytes::Bytes;

/// A sorted set of the keys present in a store, in lexicographic byte
/// order. Values stay in the hash table; a scan walks the index and
/// probes the table per member.
#[derive(Debug, Default)]
pub struct OrderedIndex {
    keys: SkipList,
    /// Differential oracle: the previous `BTreeSet` implementation, kept
    /// in lockstep and compared after every mutation (unit tests only).
    #[cfg(test)]
    oracle: parking_lot::Mutex<std::collections::BTreeSet<Bytes>>,
}

impl OrderedIndex {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[inline]
    pub fn insert(&self, key: Bytes) {
        #[cfg(test)]
        self.oracle.lock().insert(key.clone());
        self.keys.insert(key);
        #[cfg(test)]
        self.assert_matches_oracle_len();
    }

    #[inline]
    pub fn remove(&self, key: &[u8]) {
        #[cfg(test)]
        self.oracle.lock().remove(key);
        self.keys.remove(key);
        #[cfg(test)]
        self.assert_matches_oracle_len();
    }

    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.keys.contains(key)
    }

    /// Keys in `[start, end)`, ascending. An empty or inverted range
    /// yields nothing. Yields owned [`Bytes`] (refcount bumps): the
    /// iterator holds an epoch pin, not a lock, so concurrent writers
    /// are never blocked by an in-progress scan.
    pub fn range<'a>(&'a self, start: &'a [u8], end: &'a [u8]) -> impl Iterator<Item = Bytes> + 'a {
        // An inverted range yields nothing (BTreeSet::range would panic).
        let end = if end < start { start } else { end };
        self.keys.range_from(start, Some(end))
    }

    /// All keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Bytes> + '_ {
        self.keys.iter()
    }

    /// Raw index-contention counter (failed CAS attempts on this index).
    pub fn cas_retries(&self) -> u64 {
        self.keys.cas_retries()
    }

    /// Cheap per-mutation oracle check: cardinality must always agree.
    #[cfg(test)]
    fn assert_matches_oracle_len(&self) {
        let oracle_len = self.oracle.lock().len();
        assert_eq!(
            self.keys.len(),
            oracle_len,
            "skiplist/BTree cardinality diverged"
        );
    }

    /// Full differential check against the `BTreeSet` oracle: identical
    /// membership in identical order.
    #[cfg(test)]
    pub fn verify_against_oracle(&self) {
        let expect: Vec<Bytes> = self.oracle.lock().iter().cloned().collect();
        let got: Vec<Bytes> = self.keys.iter().collect();
        assert_eq!(got, expect, "skiplist iteration diverged from BTree oracle");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn range_is_half_open_and_sorted() {
        let ix = OrderedIndex::new();
        for k in [&b"c"[..], b"a", b"e", b"b", b"d"] {
            ix.insert(b(k));
        }
        let got: Vec<_> = ix.range(b"b", b"e").map(|k| k.to_vec()).collect();
        assert_eq!(got, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        ix.verify_against_oracle();
    }

    #[test]
    fn inverted_and_empty_ranges_yield_nothing() {
        let ix = OrderedIndex::new();
        ix.insert(b(b"m"));
        assert_eq!(ix.range(b"z", b"a").count(), 0);
        assert_eq!(ix.range(b"m", b"m").count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let ix = OrderedIndex::new();
        ix.insert(b(b"k"));
        assert!(ix.contains(b"k"));
        ix.insert(b(b"k"));
        assert_eq!(ix.len(), 1, "duplicate inserts collapse");
        ix.remove(b"k");
        assert!(ix.is_empty());
        ix.remove(b"k"); // idempotent
        ix.verify_against_oracle();
    }

    #[test]
    fn randomized_differential_against_btree_oracle() {
        // Seeded mixed workload: every mutation keeps the shadow BTree in
        // lockstep (see `insert`/`remove`), and the full-order comparison
        // runs periodically plus at the end.
        let ix = OrderedIndex::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..20_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 24) % 512) as u16;
            let key = Bytes::copy_from_slice(&key.to_be_bytes());
            if (x >> 60).is_multiple_of(3) {
                ix.remove(&key);
            } else {
                ix.insert(key);
            }
            if step % 4096 == 0 {
                ix.verify_against_oracle();
            }
        }
        ix.verify_against_oracle();

        // Range queries agree with the oracle's view too.
        let lo = 100u16.to_be_bytes();
        let hi = 300u16.to_be_bytes();
        let got: Vec<Bytes> = ix.range(&lo, &hi).collect();
        let expect: Vec<Bytes> = ix
            .oracle
            .lock()
            .iter()
            .filter(|k| ***k >= lo[..] && ***k < hi[..])
            .cloned()
            .collect();
        assert_eq!(got, expect);
    }
}
