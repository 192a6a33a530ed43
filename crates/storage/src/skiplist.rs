//! A lock-free ordered set of byte-string keys: Harris-style skiplist
//! with epoch-based reclamation.
//!
//! This is the latch-free replacement for the `BTreeSet` behind
//! [`crate::OrderedIndex`]. The BTree serialized every scan and insert on
//! the index granule; the skiplist gives `&self` insert/remove/contains
//! and **epoch-pinned iteration**, so concurrent scans never block
//! writers and a snapshot clone does not need to copy the index at all
//! (see `KvStore::clone`'s lazy rebuild).
//!
//! Design (Fraser 2004 / Herlihy–Shavit §14.4, the `rusty-db` sketch in
//! SNIPPETS.md):
//!
//! - Each node owns a tower of `next` pointers; level 0 is a complete
//!   sorted linked list, higher levels are express lanes.
//! - **Deletion mark** = tag bit 1 on a node's `next` pointer at each
//!   level. Marking level 0 is the remove's linearization point; the mark
//!   also makes any insert-after-victim CAS fail (the tagged word differs),
//!   which is the classic Harris trick.
//! - Traversals physically unlink (snip) marked nodes they pass. A node's
//!   `pending_links` counter starts at its height; every snipped level and
//!   every level the inserter abandoned (because the node was marked
//!   mid-build) decrements it, and whoever takes it to zero — now provably
//!   unreachable from every level — defers destruction to the epoch
//!   collector.
//! - **Deterministic tower height** from a hash of the key: the structure
//!   is a pure function of the key set, independent of insertion order or
//!   thread interleaving, so fixed-seed runs build bit-identical indexes.
//!
//! Iteration (`range`) pins an epoch guard for its lifetime: removed nodes
//! stay allocated (their frozen `next` pointers still lead back into the
//! list) until the iterator drops, giving consistent lock-free scans. A
//! concurrent scan may or may not observe a concurrent insert/remove —
//! each key's presence is decided at visit time (the usual skiplist scan
//! semantics); single-threaded use (the engine hot path) is exact.

use bytes::Bytes;
use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tallest tower: comfortable up to tens of millions of keys at p = 1/2.
const MAX_HEIGHT: usize = 16;

/// Deletion mark on a `next` pointer.
const MARK: usize = 1;

// ---------------------------------------------------------------------------
// Contention counters
// ---------------------------------------------------------------------------

/// Process-wide index-contention tallies, mirrored by per-list counters.
/// Benches read these around a run (same pattern as
/// `crossbeam_epoch::reclaimed_count`); they are observational only and
/// never feed back into behavior, so determinism is unaffected.
static GLOBAL_CAS_RETRIES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SNIPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide skiplist contention counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionSnapshot {
    /// Failed link/unlink CAS attempts (another thread won the race).
    pub cas_retries: u64,
    /// Physical unlinks of marked nodes performed by traversals.
    pub snips: u64,
    /// Deferred node destructions actually executed by the epoch collector
    /// (process-wide, includes any other epoch users).
    pub reclaimed: u64,
}

/// Reads the process-wide contention counters (bench support).
pub fn contention_snapshot() -> ContentionSnapshot {
    ContentionSnapshot {
        cas_retries: GLOBAL_CAS_RETRIES.load(Ordering::Relaxed),
        snips: GLOBAL_SNIPS.load(Ordering::Relaxed),
        reclaimed: epoch::reclaimed_count(),
    }
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

struct Node {
    key: Bytes,
    /// Tower of next pointers; `next[L]` tag bit 1 = marked (deleted) at
    /// level `L`. Length = tower height.
    next: Vec<Atomic<Node>>,
    /// Levels that still hold (or will hold) a physical link to this node.
    /// Snip and abandoned-link decrements race; zero ⇒ unreachable ⇒ safe
    /// to defer destruction. Exactly `height` decrements ever happen.
    pending_links: AtomicUsize,
}

impl Node {
    fn new(key: Bytes, height: usize) -> Node {
        Node {
            key,
            next: (0..height).map(|_| Atomic::null()).collect(),
            pending_links: AtomicUsize::new(height),
        }
    }

    fn height(&self) -> usize {
        self.next.len()
    }

    /// Is this node logically deleted? (Level-0 mark is the commit point.)
    fn is_marked(&self, g: &Guard) -> bool {
        self.next[0].load(Ordering::Acquire, g).tag() == MARK
    }
}

/// Tower height as a pure function of the key: FNV-1a hash, then a
/// geometric(1/2) draw from its trailing zeros. Insertion order and thread
/// timing never affect the final structure.
fn tower_height(key: &[u8]) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Avalanche: FNV's low bits are weak for short keys.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (1 + h.trailing_zeros() as usize).min(MAX_HEIGHT)
}

/// The result of a mutating search: for each level, the link to CAS
/// (`preds`) and the first node at-or-after the key (`succs`).
struct Position<'a> {
    preds: [&'a Atomic<Node>; MAX_HEIGHT],
    succs: [Shared<'a, Node>; MAX_HEIGHT],
}

impl Position<'_> {
    fn found(&self, key: &[u8]) -> bool {
        unsafe { self.succs[0].as_ref() }.is_some_and(|n| &*n.key == key)
    }
}

// ---------------------------------------------------------------------------
// SkipList
// ---------------------------------------------------------------------------

/// A lock-free sorted set of `Bytes` keys. All operations take `&self`.
pub struct SkipList {
    head: [Atomic<Node>; MAX_HEIGHT],
    len: AtomicUsize,
    /// Per-list mirrors of the global contention counters.
    cas_retries: AtomicU64,
    snips: AtomicU64,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .finish()
    }
}

impl SkipList {
    pub fn new() -> Self {
        SkipList {
            head: std::array::from_fn(|_| Atomic::null()),
            len: AtomicUsize::new(0),
            cas_retries: AtomicU64::new(0),
            snips: AtomicU64::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Failed CAS attempts on this list (contention observability).
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    fn note_retry(&self) {
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
        GLOBAL_CAS_RETRIES.fetch_add(1, Ordering::Relaxed);
    }

    fn note_snip(&self) {
        self.snips.fetch_add(1, Ordering::Relaxed);
        GLOBAL_SNIPS.fetch_add(1, Ordering::Relaxed);
    }

    /// One level of a pending-links decrement; frees the node when it was
    /// the last reference.
    unsafe fn release_links(&self, node: Shared<'_, Node>, n: usize, g: &Guard) {
        debug_assert!(n >= 1);
        let prev = node.deref().pending_links.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "pending_links underflow");
        if prev == n {
            g.defer_destroy(node);
        }
    }

    /// Mutating search: finds the insertion position for `key` at every
    /// level, physically unlinking marked nodes along the way (the
    /// cooperative-cleanup half of Harris's algorithm).
    fn search<'a>(&'a self, key: &[u8], g: &'a Guard) -> Position<'a> {
        'retry: loop {
            let mut preds: [&'a Atomic<Node>; MAX_HEIGHT] = std::array::from_fn(|l| &self.head[l]);
            let mut succs: [Shared<'a, Node>; MAX_HEIGHT] = [Shared::null(); MAX_HEIGHT];
            // The predecessor *node* carries across levels: descending from
            // level L+1 re-enters its tower one entry lower (`None` = head).
            let mut pred_node: Option<&'a Node> = None;
            for level in (0..MAX_HEIGHT).rev() {
                let mut link: &'a Atomic<Node> = match pred_node {
                    None => &self.head[level],
                    Some(p) => &p.next[level],
                };
                let mut curr = link.load(Ordering::Acquire, g);
                // Walk this level until the end (`curr` null) or a key >= ours.
                while let Some(c) = unsafe { curr.as_ref() } {
                    let next = c.next[level].load(Ordering::Acquire, g);
                    if next.tag() == MARK {
                        // `c` is deleted: snip it at this level.
                        match link.compare_exchange(
                            curr.with_tag(0),
                            next.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            g,
                        ) {
                            Ok(_) => {
                                self.note_snip();
                                unsafe { self.release_links(curr, 1, g) };
                                curr = next.with_tag(0);
                            }
                            Err(_) => {
                                self.note_retry();
                                continue 'retry;
                            }
                        }
                    } else if &*c.key < key {
                        pred_node = Some(c);
                        link = &c.next[level];
                        curr = next;
                    } else {
                        break;
                    }
                }
                preds[level] = link;
                succs[level] = curr;
            }
            return Position { preds, succs };
        }
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, key: Bytes) -> bool {
        let g = epoch::pin();
        let height = tower_height(&key);
        let mut owned = Owned::new(Node::new(key, height));
        loop {
            let key_bytes: Bytes = owned.key.clone();
            let pos = self.search(&key_bytes, &g);
            if pos.found(&key_bytes) {
                return false; // set semantics; `owned` drops here
            }
            // Link level 0: the insert's linearization point.
            owned.next[0].store(pos.succs[0], Ordering::Relaxed);
            match pos.preds[0].compare_exchange(
                pos.succs[0],
                owned,
                Ordering::AcqRel,
                Ordering::Acquire,
                &g,
            ) {
                Ok(node) => {
                    self.len.fetch_add(1, Ordering::AcqRel);
                    self.build_tower(node, height, &key_bytes, &g);
                    return true;
                }
                Err(e) => {
                    self.note_retry();
                    owned = e.new; // recover the allocation, retry
                }
            }
        }
    }

    /// Links levels `1..height` of a freshly inserted node. If the node
    /// gets marked mid-build, the remaining levels are abandoned and their
    /// pending-link counts released.
    fn build_tower(&self, node: Shared<'_, Node>, height: usize, key: &[u8], g: &Guard) {
        let node_ref = unsafe { node.deref() };
        for level in 1..height {
            loop {
                let pos = self.search(key, g);
                // Abandoned if deleted already (level-0 mark is authoritative).
                let cur = node_ref.next[level].load(Ordering::Acquire, g);
                if cur.tag() == MARK || node_ref.is_marked(g) {
                    unsafe { self.release_links(node, height - level, g) };
                    return;
                }
                let succ = pos.succs[level];
                if succ == node {
                    // Another traversal observed us linked here already
                    // (possible only via our own CAS below having succeeded
                    // on a prior iteration) — move on.
                    break;
                }
                // Point our tower at the successor *by CAS*: a concurrent
                // remover may set the mark on this level at any moment, and
                // a plain store would erase it (leaking the level).
                if node_ref.next[level]
                    .compare_exchange(
                        cur,
                        succ.with_tag(0),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        g,
                    )
                    .is_err()
                {
                    // Lost to a marker: abandon this and all higher levels.
                    unsafe { self.release_links(node, height - level, g) };
                    return;
                }
                match pos.preds[level].compare_exchange(
                    succ,
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    g,
                ) {
                    Ok(_) => break,
                    Err(_) => {
                        self.note_retry();
                        // Structure changed under us; re-search and retry
                        // this level.
                    }
                }
            }
        }
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: &[u8]) -> bool {
        let g = epoch::pin();
        loop {
            let pos = self.search(key, &g);
            if !pos.found(key) {
                return false;
            }
            let node = pos.succs[0];
            let node_ref = unsafe { node.deref() };
            let height = node_ref.height();
            // Mark top-down; level 0 last, by CAS, so exactly one remover
            // wins the logical delete.
            for level in (1..height).rev() {
                node_ref.next[level].fetch_or(MARK, Ordering::AcqRel, &g);
            }
            loop {
                let next = node_ref.next[0].load(Ordering::Acquire, &g);
                if next.tag() == MARK {
                    // Another remover linearized first; retry the outer
                    // search (the key may have been re-inserted).
                    self.note_retry();
                    break;
                }
                match node_ref.next[0].compare_exchange(
                    next,
                    next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &g,
                ) {
                    Ok(_) => {
                        self.len.fetch_sub(1, Ordering::AcqRel);
                        // Cooperative cleanup: this search snips the victim
                        // at every level it is still linked at.
                        let _ = self.search(key, &g);
                        return true;
                    }
                    Err(_) => self.note_retry(),
                }
            }
        }
    }

    /// Non-mutating membership test (never CASes; safe on shared paths).
    pub fn contains(&self, key: &[u8]) -> bool {
        let g = epoch::pin();
        match self.seek_ge(key, &g) {
            Some(n) => &*n.key == key,
            None => false,
        }
    }

    /// First live node with `node.key >= key`, without unlinking anything.
    fn seek_ge<'a>(&'a self, key: &[u8], g: &'a Guard) -> Option<&'a Node> {
        let mut tower: &'a [Atomic<Node>] = &self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = tower[level].load(Ordering::Acquire, g);
            while let Some(c) = unsafe { curr.as_ref() } {
                let next = c.next[level].load(Ordering::Acquire, g);
                if next.tag() == MARK || &*c.key < key {
                    // Deleted nodes are stepped *through* (their frozen next
                    // still leads back into the list); live smaller keys
                    // advance the predecessor tower.
                    if next.tag() != MARK {
                        tower = &c.next;
                    }
                    curr = next.with_tag(0);
                } else {
                    if level == 0 {
                        return Some(c);
                    }
                    break;
                }
            }
        }
        None
    }

    /// Keys in `[start, end)` ascending; `end = None` means unbounded.
    /// The iterator holds an epoch guard: O(1) setup, no copying, and
    /// nodes it can reach are not freed while it lives.
    pub fn range_from<'a>(&'a self, start: &[u8], end: Option<&'a [u8]>) -> Range<'a> {
        let guard = epoch::pin();
        // Seek under *this* guard; the raw pointer stays valid while the
        // iterator (and thus the guard) lives.
        let first = {
            // Guard lives in the returned struct; reborrow locally for the
            // seek. Safe: `seek_ge`'s result only needs the pin to be held,
            // and we hold it until the iterator drops.
            let g: &Guard = &guard;
            self.seek_ge(start, g)
                .map(|n| n as *const Node)
                .unwrap_or(std::ptr::null())
        };
        Range {
            _list: self,
            guard,
            curr: first,
            end,
        }
    }

    /// All keys, ascending.
    pub fn iter(&self) -> Range<'_> {
        self.range_from(&[], None)
    }
}

// ---------------------------------------------------------------------------
// Range iterator
// ---------------------------------------------------------------------------

/// Epoch-pinned ascending iterator over `[start, end)`. Yields owned
/// [`Bytes`] (a refcount bump, not a copy).
pub struct Range<'a> {
    _list: &'a SkipList,
    guard: Guard,
    /// Next node to consider; null = exhausted. Valid while `guard` lives.
    curr: *const Node,
    /// Exclusive upper bound.
    end: Option<&'a [u8]>,
}

impl Iterator for Range<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        loop {
            if self.curr.is_null() {
                return None;
            }
            // SAFETY: `curr` was reached through loads under `self.guard`,
            // which has been continuously pinned; the node is not freed.
            let node = unsafe { &*self.curr };
            if let Some(end) = self.end {
                if &*node.key >= end {
                    self.curr = std::ptr::null();
                    return None;
                }
            }
            let next = node.next[0].load(Ordering::Acquire, &self.guard);
            self.curr = next.as_raw();
            if next.tag() != MARK {
                return Some(node.key.clone());
            }
            // Logically deleted: step through without yielding.
        }
    }
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

impl Drop for SkipList {
    fn drop(&mut self) {
        // `&mut self`: no concurrent operations. Any node still physically
        // linked at ≥1 level (pending_links > 0) is owned by the list and
        // freed here; fully unlinked nodes were already handed to the epoch
        // collector by whoever took pending_links to zero.
        let mut seen: std::collections::HashSet<*const Node> = std::collections::HashSet::new();
        for level in 0..MAX_HEIGHT {
            let mut curr = unsafe { self.head[level].load_unprotected() };
            while let Some(c) = unsafe { curr.as_ref() } {
                let next = unsafe { c.next[level].load_unprotected() };
                seen.insert(curr.as_raw());
                curr = next.with_tag(0);
            }
        }
        for ptr in seen {
            drop(unsafe { Box::from_raw(ptr as *mut Node) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let s = SkipList::new();
        assert!(s.insert(b(b"b")));
        assert!(s.insert(b(b"a")));
        assert!(!s.insert(b(b"a")), "duplicate insert rejected");
        assert_eq!(s.len(), 2);
        assert!(s.contains(b"a"));
        assert!(!s.contains(b"c"));
        assert!(s.remove(b"a"));
        assert!(!s.remove(b"a"), "double remove rejected");
        assert!(!s.contains(b"a"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_and_half_open() {
        let s = SkipList::new();
        for k in [&b"c"[..], b"a", b"e", b"b", b"d"] {
            s.insert(b(k));
        }
        let all: Vec<Vec<u8>> = s.iter().map(|k| k.to_vec()).collect();
        assert_eq!(
            all,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec()
            ]
        );
        let mid: Vec<Vec<u8>> = s.range_from(b"b", Some(b"e")).map(|k| k.to_vec()).collect();
        assert_eq!(mid, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        assert_eq!(s.range_from(b"m", Some(b"m")).count(), 0);
    }

    #[test]
    fn structure_is_insertion_order_independent() {
        // Same key set, different insertion orders and interleaved
        // removals: iteration must agree (and heights are deterministic,
        // so even the internal towers match).
        let mk = |order: &[u32]| {
            let s = SkipList::new();
            for &i in order {
                s.insert(Bytes::copy_from_slice(&i.to_be_bytes()));
            }
            s
        };
        let a = mk(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let c = mk(&[8, 3, 1, 7, 5, 2, 6, 4]);
        let ka: Vec<Bytes> = a.iter().collect();
        let kc: Vec<Bytes> = c.iter().collect();
        assert_eq!(ka, kc);
    }

    #[test]
    fn removed_keys_can_be_reinserted() {
        let s = SkipList::new();
        for round in 0..5 {
            assert!(s.insert(b(b"k")), "round {round}");
            assert!(s.contains(b"k"));
            assert!(s.remove(b"k"));
            assert!(!s.contains(b"k"));
        }
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn scan_skips_concurrently_removed_keys() {
        let s = SkipList::new();
        for i in 0..100u32 {
            s.insert(Bytes::copy_from_slice(&i.to_be_bytes()));
        }
        // Start a scan, then remove keys ahead of it: the scan must skip
        // them without crashing or yielding stale members... and because
        // the guard pins the epoch, the removed nodes' memory stays valid.
        let mut it = s.iter();
        let first = it.next().unwrap();
        assert_eq!(&first[..], &0u32.to_be_bytes());
        for i in 50..100u32 {
            s.remove(&i.to_be_bytes());
        }
        let rest: Vec<Bytes> = it.collect();
        assert_eq!(rest.len(), 49, "keys 1..50 remain");
        drop(s);
    }

    #[test]
    fn large_population_stays_sorted() {
        let s = SkipList::new();
        // Pseudo-random insertion order (LCG), then verify total order.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.insert(Bytes::copy_from_slice(&(x >> 32).to_be_bytes()[..4]));
        }
        let keys: Vec<Bytes> = s.iter().collect();
        assert_eq!(keys.len(), s.len());
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "strictly ascending, no duplicates");
        }
    }
}
