//! A sorted set of byte-string keys, for the benchmark's layer drive.
//!
//! **No transaction path uses this type.** A scan-capable
//! [`crate::KvStore`] keeps its rows in one `BTreeMap` (its ordered
//! mode). This type stays only because the benchmark's `ordered_drive`
//! (`benchmark/src/drives.rs`) names it: until that drive is rewritten
//! over `KvStore`'s ordered mode, the `storage.ordered.*` layer rows
//! measure this set, not the store the workloads run on.
//!
//! **Why a B-tree.** An index has one owner, run by one thread (§3: a
//! partition run by one thread needs no latches), so it is std's
//! `BTreeSet` and not the lock-free skiplist it used to be.
//!
//! **Why `&self`.** `insert` and `remove` go through a `RefCell` for one
//! reason: the benchmark's layer drive (`benchmark/src/drives.rs`, frozen
//! between benchmark issues) calls them on a non-`mut` binding. Mutating
//! an index under an open scan of it therefore panics (`BorrowMutError`)
//! rather than showing the scan a half-updated tree.
//!
//! **Why a chunked cursor.** A `RefCell` cannot lend out a
//! `btree_set::Range`, so [`OrderedIndex::range`] returns a cursor that
//! holds the `Ref` and copies keys out `CHUNK` (16) at a time into an
//! inline buffer: one descent per chunk, no allocation per scan, any scan
//! length. Both simpler cursors were measured on YCSB-E's shape (8 Ki
//! keys, scans of up to 16 slots) and lose: re-seeking from the last key
//! for every row pays a descent per row (3.3× the time per row); a chunk
//! of 8 refills in the middle of those scans (+10 % per row).

use bytes::Bytes;
use std::cell::{Ref, RefCell};
use std::collections::BTreeSet;
use std::ops::Bound;

/// Keys a cursor copies out per descent of the tree.
const CHUNK: usize = 16;

/// A sorted set of keys, in lexicographic byte order.
#[derive(Debug, Default, Clone)]
pub struct OrderedIndex {
    keys: RefCell<BTreeSet<Bytes>>,
}

impl OrderedIndex {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.keys.borrow().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.borrow().is_empty()
    }

    /// # Panics
    /// Like [`remove`](Self::remove), if a [`range`](Self::range) or
    /// [`iter`](Self::iter) of this index is still open.
    #[inline]
    pub fn insert(&self, key: Bytes) {
        self.keys.borrow_mut().insert(key);
    }

    #[inline]
    pub fn remove(&self, key: &[u8]) {
        self.keys.borrow_mut().remove(key);
    }

    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.keys.borrow().contains(key)
    }

    /// Keys in `[start, end)`, ascending. An empty or inverted range
    /// yields nothing. Yields owned [`Bytes`] (inline copies or refcount
    /// bumps); the index stays borrowed until the iterator is dropped.
    pub fn range<'a>(&'a self, start: &'a [u8], end: &'a [u8]) -> impl Iterator<Item = Bytes> + 'a {
        Cursor::new(self.keys.borrow(), Bound::Included(start), Some(end))
    }

    /// All keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Bytes> + '_ {
        Cursor::new(self.keys.borrow(), Bound::Unbounded, None)
    }
}

/// A scan in progress: the borrowed tree and the keys of the current
/// chunk, which move out as they are yielded.
struct Cursor<'a> {
    keys: Ref<'a, BTreeSet<Bytes>>,
    /// Exclusive; `None` scans to the last key.
    end: Option<&'a [u8]>,
    chunk: [Bytes; CHUNK],
    /// Keys of `chunk` that were set, and how many of them were yielded.
    filled: usize,
    yielded: usize,
    /// The last key of a full chunk: the next chunk starts after it.
    resume: Bytes,
}

impl<'a> Cursor<'a> {
    fn new(keys: Ref<'a, BTreeSet<Bytes>>, start: Bound<&[u8]>, end: Option<&'a [u8]>) -> Self {
        const EMPTY: Bytes = Bytes::new();
        let mut cursor = Cursor {
            keys,
            end,
            chunk: [EMPTY; CHUNK],
            filled: 0,
            yielded: 0,
            resume: EMPTY,
        };
        cursor.fill(start);
        cursor
    }

    /// One descent: copy out the next (up to) `CHUNK` keys from `start`.
    fn fill(&mut self, start: Bound<&[u8]>) {
        // Open above, with `end` tested per key: bounding the tree's range
        // would search the path to `end` as well, which costs more than
        // comparing the few keys a chunk holds (and an inverted range needs
        // no special case: its first key is already past `end`).
        let end = self.end;
        let rest = self
            .keys
            .range::<[u8], _>((start, Bound::Unbounded))
            .take_while(|key| end.is_none_or(|end| key.as_slice() < end));
        self.filled = 0;
        self.yielded = 0;
        for (slot, key) in self.chunk.iter_mut().zip(rest) {
            *slot = key.clone();
            self.filled += 1;
        }
        if self.filled == CHUNK {
            self.resume = self.chunk[CHUNK - 1].clone();
        }
    }
}

impl Iterator for Cursor<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        if self.yielded == self.filled {
            // A short chunk is the end of the range; a full one may have
            // more behind it.
            if self.filled < CHUNK {
                return None;
            }
            let resume = std::mem::take(&mut self.resume);
            self.fill(Bound::Excluded(&resume[..]));
            if self.filled == 0 {
                return None;
            }
        }
        self.yielded += 1;
        Some(std::mem::take(&mut self.chunk[self.yielded - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    fn be(i: u32) -> Bytes {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    #[test]
    fn range_is_half_open_and_sorted() {
        let ix = OrderedIndex::new();
        for k in [&b"c"[..], b"a", b"e", b"b", b"d"] {
            ix.insert(b(k));
        }
        let got: Vec<_> = ix.range(b"b", b"e").map(|k| k.to_vec()).collect();
        assert_eq!(got, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn inverted_and_empty_ranges_yield_nothing() {
        let ix = OrderedIndex::new();
        assert_eq!(ix.range(b"a", b"z").count(), 0, "empty index");
        assert_eq!(ix.iter().count(), 0, "empty index");
        ix.insert(b(b"m"));
        assert_eq!(ix.range(b"z", b"a").count(), 0);
        assert_eq!(ix.range(b"m", b"m").count(), 0);
        assert_eq!(ix.range(b"n", b"z").count(), 0, "nothing in range");
    }

    #[test]
    fn insert_remove_roundtrip() {
        let ix = OrderedIndex::new();
        // More than one round: a removed key can be inserted again.
        for round in 0..5 {
            ix.insert(b(b"k"));
            assert!(ix.contains(b"k"), "round {round}");
            ix.insert(b(b"k"));
            assert_eq!(ix.len(), 1, "duplicate inserts collapse");
            assert_eq!(ix.iter().count(), 1);
            ix.remove(b"k");
            assert!(ix.is_empty());
            ix.remove(b"k"); // idempotent
            assert!(!ix.contains(b"k"), "round {round}");
        }
    }

    #[test]
    fn iteration_is_insertion_order_independent() {
        // Same key set, different insertion orders and an interleaved
        // removal: iteration must agree.
        let mk = |order: &[u32]| {
            let ix = OrderedIndex::new();
            for &i in order {
                ix.insert(be(i));
            }
            ix
        };
        let a = mk(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let c = mk(&[8, 3, 1, 9, 7, 5, 2, 6, 4]);
        c.remove(&9u32.to_be_bytes());
        let ka: Vec<Bytes> = a.iter().collect();
        let kc: Vec<Bytes> = c.iter().collect();
        assert_eq!(ka, kc);
    }

    #[test]
    fn scans_straddling_the_chunk_yield_every_row() {
        let ix = OrderedIndex::new();
        for i in 0..64u32 {
            ix.insert(be(i));
        }
        for rows in [0, 1, CHUNK as u32 - 1, CHUNK as u32, CHUNK as u32 + 1, 50] {
            let (lo, hi) = (7u32.to_be_bytes(), (7 + rows).to_be_bytes());
            let got: Vec<Bytes> = ix.range(&lo, &hi).collect();
            let expect: Vec<Bytes> = (7..7 + rows).map(be).collect();
            assert_eq!(got, expect, "{rows} rows");
        }
        // A range that ends exactly on a chunk boundary *and* on the last
        // key: the refill finds nothing.
        let (lo, hi) = (48u32.to_be_bytes(), 64u32.to_be_bytes());
        assert_eq!(ix.range(&lo, &hi).count(), CHUNK);
    }

    #[test]
    fn large_population_stays_sorted() {
        let ix = OrderedIndex::new();
        // Pseudo-random insertion order (LCG), then verify total order.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ix.insert(Bytes::copy_from_slice(&(x >> 32).to_be_bytes()[..4]));
        }
        let keys: Vec<Bytes> = ix.iter().collect();
        assert_eq!(keys.len(), ix.len());
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "strictly ascending, no duplicates");
        }
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn insert_under_an_open_range_panics() {
        let ix = OrderedIndex::new();
        ix.insert(b(b"a"));
        let mut scan = ix.range(b"a", b"z");
        ix.insert(b(b"b"));
        scan.next();
    }

    #[test]
    fn randomized_differential_against_btree_oracle() {
        // Seeded mixed workload against a plain std set of plain vectors.
        let ix = OrderedIndex::new();
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (((x >> 24) % 512) as u16).to_be_bytes();
            if (x >> 60).is_multiple_of(3) {
                ix.remove(&key);
                model.remove(&key[..]);
            } else {
                ix.insert(Bytes::copy_from_slice(&key));
                model.insert(key.to_vec());
            }
            assert_eq!(ix.contains(&key), model.contains(&key[..]));
            assert_eq!(ix.len(), model.len());
        }
        let got: Vec<Vec<u8>> = ix.iter().map(|k| k.to_vec()).collect();
        let expect: Vec<Vec<u8>> = model.iter().cloned().collect();
        assert_eq!(got, expect, "iteration diverged from std's BTreeSet");

        // A range of several chunks agrees with std's `range` too.
        let (lo, hi) = (100u16.to_be_bytes(), 300u16.to_be_bytes());
        let got: Vec<Vec<u8>> = ix.range(&lo, &hi).map(|k| k.to_vec()).collect();
        let expect: Vec<Vec<u8>> = model.range(lo.to_vec()..hi.to_vec()).cloned().collect();
        assert!(expect.len() > 2 * CHUNK);
        assert_eq!(got, expect);
    }
}
