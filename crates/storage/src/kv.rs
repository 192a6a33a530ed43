//! The microbenchmark execution engine: a byte-string key/value store.
//!
//! Paper §5: "the execution engine is a simple key/value store, where keys
//! and values are arbitrary byte strings. One transaction is supported,
//! which reads a set of values then updates them."
//!
//! Mutations can record pre-images into a [`KvUndo`] buffer; applying the
//! buffer restores the exact prior state. Schedulers keep one buffer per
//! in-flight transaction and roll them back in reverse execution order.
//!
//! **Hashed or ordered.** The paper keeps each table "as either a B-Tree,
//! a binary tree, or hash table, as appropriate", and a store is one of
//! the two, never both:
//! - *hashed* (the default): a fast-hash open-addressing [`Table`], for
//!   stores that only ever see point operations — the paper's
//!   microbenchmark and the point-read YCSB-B mix;
//! - *ordered* ([`KvStore::enable_ordered_index`]): std's `BTreeMap`,
//!   for stores that serve range scans (YCSB-E). A scan walks the map's
//!   range and yields its rows in place. A point operation pays a tree
//!   descent instead of a hash probe: on YCSB-E's shape (8 Ki rows of
//!   8-byte keys, keys drawn uniformly) a `get` measured 141–195 ns
//!   against 11–18 ns on a table (release build, one thread of a 2-vCPU
//!   x86-64 host). YCSB-E's only point operations are its 5 % inserts;
//!   a scan of ~4 rows costs 234–256 ns.
//!
//! Every mutation path, undo replay included, writes the one structure
//! the store has, so rollback and the birth-ordered committed-state
//! `snapshot()` (§3.3 recovery) restore the scannable view exactly.
//!
//! Hot-path design (the paper's whole point is that these fixed costs
//! decide throughput): short keys/values are inline `Bytes` (no
//! allocation), the [`KvStore::update`] path finds its row once per
//! read-modify-write, and undo buffers are meant to be **recycled** via
//! [`KvStore::rollback_reuse`] / [`KvUndo::clear`] so steady state
//! allocates nothing per transaction.

use crate::table::Table;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One recorded pre-image: the value (or absence) a key had before a
/// mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UndoRecord {
    key: Bytes,
    prior: Option<Bytes>,
}

/// Per-transaction undo buffer for the KV store. Records are replayed in
/// reverse order by [`KvStore::rollback`].
#[derive(Debug, Default, Clone)]
pub struct KvUndo {
    records: Vec<UndoRecord>,
    /// Engine-assigned creation order among *live* buffers: schedulers
    /// stack concurrent transactions (speculation, lock queues) such that
    /// a younger buffer's writes never precede an older buffer's writes
    /// to the same key, so undoing whole buffers youngest-first restores
    /// committed state. Used by committed-state snapshots (§3.3
    /// recovery); rollback of a single transaction ignores it.
    pub birth: u64,
}

impl KvUndo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded pre-images (used by cost accounting).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records, keeping the allocation for reuse (buffer pools).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Pre-size for a transaction of `n` mutations (engines know the op
    /// count from the fragment, so recording never reallocates).
    pub fn reserve(&mut self, n: usize) {
        self.records.reserve(n);
    }
}

/// A store's rows, in the one structure its mode keeps.
#[derive(Debug, Clone)]
enum Rows {
    Hashed(Table),
    Ordered(BTreeMap<Bytes, Bytes>),
}

impl Default for Rows {
    fn default() -> Self {
        Rows::Hashed(Table::new())
    }
}

/// An in-memory store of byte-string keys and values: a hash table, or a
/// B-tree once [`enable_ordered_index`](KvStore::enable_ordered_index)
/// has made it scannable (module doc).
///
/// `Clone` copies the rows as they are: committed-state snapshots (§3.3;
/// failover and rejoin only) clone the store and roll the live undo
/// buffers back on the copy with [`rollback_copy`](KvStore::rollback_copy).
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    rows: Rows,
}

impl KvStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sized hashed store (loaders know the row count).
    pub fn with_capacity(n: usize) -> Self {
        KvStore {
            rows: Rows::Hashed(Table::with_capacity(n)),
        }
    }

    /// Switch the store to ordered mode, moving its rows into a B-tree,
    /// which enables [`scan_range`](KvStore::scan_range). Idempotent.
    /// Loaders that scan call it before they preload, so the rows go
    /// straight into the tree.
    pub fn enable_ordered_index(&mut self) {
        if let Rows::Hashed(table) = &mut self.rows {
            self.rows = Rows::Ordered(std::mem::take(table).into_rows().collect());
        }
    }

    pub fn has_ordered_index(&self) -> bool {
        matches!(self.rows, Rows::Ordered(_))
    }

    /// The B-tree of an ordered store. Panics on a hashed one: workloads
    /// that scan build their engines in ordered mode.
    fn ordered(&self, what: &str) -> &BTreeMap<Bytes, Bytes> {
        match &self.rows {
            Rows::Ordered(rows) => rows,
            Rows::Hashed(_) => panic!("{what} on a store without an ordered index"),
        }
    }

    /// Rows with keys in `[start, end)`, ascending by key byte order. An
    /// empty or inverted range yields nothing; a hashed store panics.
    pub fn scan_range<'a>(
        &'a self,
        start: &'a [u8],
        end: &'a [u8],
    ) -> impl Iterator<Item = (&'a Bytes, &'a Bytes)> {
        // Open above, `end` tested per row: a two-bound range also searches
        // the path to `end` (255–344 ns per scan against 236–290 ns, on the
        // module doc's shape). An inverted range, which `BTreeMap::range`
        // panics on, needs no guard: its first key is already past `end`.
        self.ordered("scan")
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(move |(key, _)| key.as_slice() < end)
    }

    /// Order-*sensitive* fingerprint: a sequential hash over the ordered
    /// walk of the rows. Two stores agree iff they walk identical
    /// (key, value) rows in identical order — so a wrong scannable view
    /// after rollback, snapshot, or recovery shows up even when the
    /// order-independent [`fingerprint`](KvStore::fingerprint) matches.
    pub fn ordered_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mix = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Chunk-length separator: a fixed byte would let
            // (key=[a,X], value=[]) collide with (key=[a], value=[X]).
            *h ^= bytes.len() as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (k, v) in self.ordered("ordered_fingerprint") {
            mix(&mut h, k);
            mix(&mut h, v);
        }
        h
    }

    /// The scannable view's invariants, for tests: on an ordered store
    /// the walk is strictly ascending and has [`len`](KvStore::len)
    /// rows. `Ok(())` on a hashed store. (With one structure per mode
    /// there is no index left to disagree with a table.)
    pub fn check_ordered_invariants(&self) -> Result<(), String> {
        let Rows::Ordered(rows) = &self.rows else {
            return Ok(());
        };
        if let Some((a, b)) = rows.keys().zip(rows.keys().skip(1)).find(|(a, b)| a >= b) {
            return Err(format!("ordered walk not ascending: {a:?} then {b:?}"));
        }
        let walked = rows.iter().count();
        if walked != self.len() {
            return Err(format!("ordered walk has {walked} of {} rows", self.len()));
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Hashed(rows) => rows.len(),
            Rows::Ordered(rows) => rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read a value.
    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        match &self.rows {
            Rows::Hashed(rows) => rows.get(key),
            Rows::Ordered(rows) => rows.get(key),
        }
    }

    /// Write a value, optionally recording the pre-image for rollback.
    /// Not routed through `set`: its `Some` slowed preloads (`setup_s` +23–41 %).
    pub fn put(&mut self, key: Bytes, value: Bytes, undo: Option<&mut KvUndo>) {
        let prior = match &mut self.rows {
            Rows::Hashed(rows) => rows.insert(key.clone(), value),
            Rows::Ordered(rows) => rows.insert(key.clone(), value),
        };
        if let Some(u) = undo {
            u.records.push(UndoRecord { key, prior });
        }
    }

    /// Read-modify-write an **existing** key, finding its row once:
    /// `f(current)` produces the new value; the pre-image is recorded if
    /// requested. Falls back to an insert when the key is absent.
    #[inline]
    pub fn update(
        &mut self,
        key: &[u8],
        undo: Option<&mut KvUndo>,
        f: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) {
        let slot = match &mut self.rows {
            Rows::Hashed(rows) => rows.get_mut(key),
            Rows::Ordered(rows) => rows.get_mut(key),
        };
        match slot {
            Some(slot) => {
                let next = f(Some(slot));
                if let Some(u) = undo {
                    u.records.push(UndoRecord {
                        key: Bytes::copy_from_slice(key),
                        prior: Some(std::mem::replace(slot, next)),
                    });
                } else {
                    *slot = next;
                }
            }
            None => {
                let value = f(None);
                self.put(Bytes::copy_from_slice(key), value, undo);
            }
        }
    }

    /// Delete a key, optionally recording the pre-image. Returns the removed
    /// value, if any.
    pub fn delete(&mut self, key: &Bytes, undo: Option<&mut KvUndo>) -> Option<Bytes> {
        let prior = self.set(key.clone(), None);
        if let Some(u) = undo {
            u.records.push(UndoRecord {
                key: key.clone(),
                prior: prior.clone(),
            });
        }
        prior
    }

    /// Undo every mutation recorded in `undo`, most recent first, restoring
    /// the state the store had before the transaction ran.
    pub fn rollback(&mut self, mut undo: KvUndo) {
        self.rollback_reuse(&mut undo);
    }

    /// As [`rollback`](KvStore::rollback), but leaves the (now empty)
    /// buffer's allocation intact so the caller can pool it.
    pub fn rollback_reuse(&mut self, undo: &mut KvUndo) {
        for rec in undo.records.drain(..).rev() {
            self.set(rec.key, rec.prior);
        }
    }

    /// Apply `undo` without consuming it — for building a committed-state
    /// copy of a store that has live (in-flight) transactions: clone the
    /// store, then roll the live buffers back on the clone,
    /// youngest-[`birth`](KvUndo::birth) first.
    pub fn rollback_copy(&mut self, undo: &KvUndo) {
        for rec in undo.records.iter().rev() {
            self.set(rec.key.clone(), rec.prior.clone());
        }
    }

    /// Set `key`'s row to `value` (no row for `None`) and return the
    /// prior value: the one write that `delete` and both rollback flavors
    /// share.
    fn set(&mut self, key: Bytes, value: Option<Bytes>) -> Option<Bytes> {
        match (&mut self.rows, value) {
            (Rows::Hashed(rows), Some(value)) => rows.insert(key, value),
            (Rows::Hashed(rows), None) => rows.remove(&key),
            (Rows::Ordered(rows), Some(value)) => rows.insert(key, value),
            (Rows::Ordered(rows), None) => rows.remove(&key),
        }
    }

    /// Iterate over all entries (test/verification support): in key
    /// order on an ordered store, in table order on a hashed one.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (&Bytes, &Bytes)> + '_> {
        match &self.rows {
            Rows::Hashed(rows) => Box::new(rows.iter()),
            Rows::Ordered(rows) => Box::new(rows.iter()),
        }
    }

    /// A stable fingerprint of the full store contents, used by tests to
    /// compare replica state and to check rollback restores state exactly.
    pub fn fingerprint(&self) -> u64 {
        // XOR of per-entry FNV hashes: order-independent, cheap.
        let mut acc = 0u64;
        for (k, v) in self.iter() {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in k.iter().chain(v.iter()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Mix in a separator between key and value lengths to avoid
            // (k="ab", v="c") colliding with (k="a", v="bc").
            h ^= (k.len() as u64) << 32 | v.len() as u64;
            acc ^= h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("5"), None);
        assert_eq!(kv.get(b"x"), Some(&b("5")));
        assert_eq!(kv.get(b"y"), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite_without_undo() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("1"), None);
        kv.put(b("x"), b("2"), None);
        assert_eq!(kv.get(b"x"), Some(&b("2")));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn rollback_restores_overwritten_value() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("old"), None);
        let before = kv.fingerprint();

        let mut undo = KvUndo::new();
        kv.put(b("x"), b("new"), Some(&mut undo));
        assert_eq!(kv.get(b"x"), Some(&b("new")));
        kv.rollback(undo);
        assert_eq!(kv.get(b"x"), Some(&b("old")));
        assert_eq!(kv.fingerprint(), before);
    }

    #[test]
    fn rollback_removes_inserted_key() {
        let mut kv = KvStore::new();
        let before = kv.fingerprint();
        let mut undo = KvUndo::new();
        kv.put(b("fresh"), b("v"), Some(&mut undo));
        kv.rollback(undo);
        assert_eq!(kv.get(b"fresh"), None);
        assert!(kv.is_empty());
        assert_eq!(kv.fingerprint(), before);
    }

    #[test]
    fn rollback_restores_deleted_key() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("keep"), None);
        let before = kv.fingerprint();
        let mut undo = KvUndo::new();
        let removed = kv.delete(&b("x"), Some(&mut undo));
        assert_eq!(removed, Some(b("keep")));
        assert_eq!(kv.get(b"x"), None);
        kv.rollback(undo);
        assert_eq!(kv.get(b"x"), Some(&b("keep")));
        assert_eq!(kv.fingerprint(), before);
    }

    #[test]
    fn rollback_is_lifo_within_buffer() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("0"), None);
        let before = kv.fingerprint();
        let mut undo = KvUndo::new();
        kv.put(b("x"), b("1"), Some(&mut undo));
        kv.put(b("x"), b("2"), Some(&mut undo));
        kv.put(b("x"), b("3"), Some(&mut undo));
        kv.rollback(undo);
        assert_eq!(kv.get(b"x"), Some(&b("0")));
        assert_eq!(kv.fingerprint(), before);
    }

    #[test]
    fn undo_len_counts_records() {
        let mut kv = KvStore::new();
        let mut undo = KvUndo::new();
        assert!(undo.is_empty());
        kv.put(b("a"), b("1"), Some(&mut undo));
        kv.put(b("b"), b("2"), Some(&mut undo));
        assert_eq!(undo.len(), 2);
    }

    #[test]
    fn update_probes_once_and_rolls_back() {
        let mut kv = KvStore::new();
        kv.put(b("x"), b("a"), None);
        let before = kv.fingerprint();
        let mut undo = KvUndo::new();
        kv.update(b"x", Some(&mut undo), |cur| {
            assert_eq!(cur, Some(&b("a")));
            b("b")
        });
        assert_eq!(kv.get(b"x"), Some(&b("b")));
        assert_eq!(undo.len(), 1);
        kv.rollback_reuse(&mut undo);
        assert!(undo.is_empty());
        assert_eq!(kv.fingerprint(), before);
    }

    #[test]
    fn update_inserts_missing_key() {
        let mut kv = KvStore::new();
        let mut undo = KvUndo::new();
        kv.update(b"nu", Some(&mut undo), |cur| {
            assert_eq!(cur, None);
            b("v")
        });
        assert_eq!(kv.get(b"nu"), Some(&b("v")));
        kv.rollback(undo);
        assert!(kv.is_empty());
    }

    #[test]
    fn rollback_reuse_keeps_capacity() {
        let mut kv = KvStore::new();
        let mut undo = KvUndo::new();
        undo.reserve(16);
        for i in 0..16u8 {
            kv.put(Bytes::copy_from_slice(&[i]), b("v"), Some(&mut undo));
        }
        let cap = undo.records.capacity();
        kv.rollback_reuse(&mut undo);
        assert!(undo.is_empty());
        assert_eq!(undo.records.capacity(), cap, "pooled buffer keeps storage");
    }

    #[test]
    fn fingerprint_detects_differences() {
        let mut a = KvStore::new();
        let mut bst = KvStore::new();
        a.put(b("x"), b("1"), None);
        bst.put(b("x"), b("2"), None);
        assert_ne!(a.fingerprint(), bst.fingerprint());
        bst.put(b("x"), b("1"), None);
        assert_eq!(a.fingerprint(), bst.fingerprint());
    }

    #[test]
    fn scan_range_walks_keys_in_order() {
        let mut kv = KvStore::new();
        for k in ["d", "a", "c", "e", "b"] {
            kv.put(b(k), b(&format!("v{k}")), None);
        }
        kv.enable_ordered_index();
        let got: Vec<(String, String)> = kv
            .scan_range(b"b", b"e")
            .map(|(k, v)| {
                (
                    String::from_utf8(k.to_vec()).unwrap(),
                    String::from_utf8(v.to_vec()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("b".into(), "vb".into()),
                ("c".into(), "vc".into()),
                ("d".into(), "vd".into())
            ]
        );
        kv.check_ordered_invariants().unwrap();
    }

    #[test]
    fn ordered_index_tracks_inserts_and_deletes() {
        let mut kv = KvStore::new();
        kv.enable_ordered_index();
        kv.put(b("m"), b("1"), None);
        kv.put(b("k"), b("2"), None);
        assert_eq!(kv.scan_range(b"", b"z").count(), 2);
        kv.delete(&b("k"), None);
        let keys: Vec<_> = kv.scan_range(b"", b"z").map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b("m")]);
        kv.check_ordered_invariants().unwrap();
    }

    #[test]
    fn rollback_restores_the_ordered_view() {
        let mut kv = KvStore::new();
        kv.put(b("b"), b("keep"), None);
        kv.enable_ordered_index();
        let before = kv.ordered_fingerprint();

        let mut undo = KvUndo::new();
        kv.put(b("a"), b("new"), Some(&mut undo)); // insert
        kv.delete(&b("b"), Some(&mut undo)); // delete
        kv.put(b("c"), b("x"), Some(&mut undo)); // insert
        kv.update(b"c", Some(&mut undo), |_| b("y")); // overwrite
        assert_ne!(kv.ordered_fingerprint(), before);
        kv.rollback(undo);
        assert_eq!(kv.ordered_fingerprint(), before);
        kv.check_ordered_invariants().unwrap();
        assert_eq!(kv.scan_range(b"", b"z").count(), 1);
    }

    #[test]
    fn rollback_copy_maintains_the_index_on_clones() {
        let mut kv = KvStore::new();
        kv.enable_ordered_index();
        kv.put(b("base"), b("0"), None);
        let committed_fp = kv.ordered_fingerprint();

        // A live (uncommitted) transaction inserts and deletes.
        let mut undo = KvUndo::new();
        kv.put(b("phantom"), b("1"), Some(&mut undo));
        kv.delete(&b("base"), Some(&mut undo));

        // Committed-state copy: clone + rollback_copy (the snapshot()
        // path) must restore the ordered view on the clone while the
        // original keeps its in-flight state.
        let mut copy = kv.clone();
        copy.rollback_copy(&undo);
        assert_eq!(copy.ordered_fingerprint(), committed_fp);
        copy.check_ordered_invariants().unwrap();
        assert!(kv.scan_range(b"", b"zzz").any(|(k, _)| k == &b("phantom")));
        assert!(!copy
            .scan_range(b"", b"zzz")
            .any(|(k, _)| k == &b("phantom")));
    }

    #[test]
    fn ordered_fingerprint_detects_value_changes() {
        let mut a = KvStore::new();
        a.enable_ordered_index();
        a.put(b("x"), b("1"), None);
        let mut c = KvStore::new();
        c.enable_ordered_index();
        c.put(b("x"), b("2"), None);
        assert_ne!(a.ordered_fingerprint(), c.ordered_fingerprint());
        c.put(b("x"), b("1"), None);
        assert_eq!(a.ordered_fingerprint(), c.ordered_fingerprint());
    }

    /// Every row, in scan order.
    fn scan_all(kv: &KvStore) -> Vec<(Bytes, Bytes)> {
        kv.scan_range(b"", b"\xff")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    #[test]
    fn empty_and_inverted_ranges_yield_nothing() {
        let mut kv = KvStore::new();
        kv.enable_ordered_index();
        assert_eq!(kv.scan_range(b"a", b"z").count(), 0, "empty store");
        for k in ["a", "b", "c"] {
            kv.put(b(k), b("v"), None);
        }
        assert_eq!(kv.scan_range(b"b", b"b").count(), 0, "empty range");
        assert_eq!(kv.scan_range(b"c", b"a").count(), 0, "inverted range");
        assert_eq!(
            kv.scan_range(b"z", b"a").count(),
            0,
            "inverted, past the end"
        );
    }

    #[test]
    fn enable_ordered_index_is_idempotent_and_late() {
        let mut kv = KvStore::new();
        for i in 0..100u8 {
            kv.put(
                Bytes::copy_from_slice(&[i]),
                Bytes::copy_from_slice(&[i, i]),
                None,
            );
        }
        let hashed: std::collections::BTreeMap<_, _> =
            kv.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let fp = kv.fingerprint();
        kv.enable_ordered_index();
        assert!(kv.has_ordered_index());
        assert_eq!(kv.len(), 100);
        assert_eq!(kv.fingerprint(), fp);
        let rows = scan_all(&kv);
        assert_eq!(rows, hashed.into_iter().collect::<Vec<_>>());
        let ofp = kv.ordered_fingerprint();
        kv.enable_ordered_index();
        assert_eq!(kv.ordered_fingerprint(), ofp);
        assert_eq!(scan_all(&kv), rows);
        kv.check_ordered_invariants().unwrap();
    }

    #[test]
    fn ordering_first_or_last_builds_the_same_store() {
        let fill = |kv: &mut KvStore| {
            for k in ["m", "c", "x", "a", "q"] {
                kv.put(b(k), b(&format!("v{k}")), None);
            }
            kv.delete(&b("x"), None);
            kv.update(b"c", None, |_| b("w"));
        };
        let mut first = KvStore::new();
        first.enable_ordered_index();
        fill(&mut first);
        let mut last = KvStore::new();
        fill(&mut last);
        let hashed_fp = last.fingerprint();
        last.enable_ordered_index();
        assert_eq!(first.fingerprint(), hashed_fp);
        assert_eq!(last.fingerprint(), hashed_fp);
        assert_eq!(first.ordered_fingerprint(), last.ordered_fingerprint());
        assert_eq!(scan_all(&first), scan_all(&last));
        assert_eq!(scan_all(&first).len(), 4);
    }

    #[test]
    fn fingerprint_order_independent() {
        let mut a = KvStore::new();
        a.put(b("x"), b("1"), None);
        a.put(b("y"), b("2"), None);
        let mut c = KvStore::new();
        c.put(b("y"), b("2"), None);
        c.put(b("x"), b("1"), None);
        assert_eq!(a.fingerprint(), c.fingerprint());
    }
}
