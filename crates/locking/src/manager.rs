//! The lock table: grant groups, FIFO wait queues, upgrades, and release.

use hcc_common::{FxHashMap, LockKey, Nanos, TxnId};
use std::collections::VecDeque;

/// Shared (read) or exclusive (write) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    Shared,
    Exclusive,
}

impl LockMode {
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True if holding `self` already satisfies a request for `want`.
    #[inline]
    pub fn covers(self, want: LockMode) -> bool {
        self == LockMode::Exclusive || want == LockMode::Shared
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was queued; the caller must suspend the transaction.
    Waiting,
}

#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    txn: TxnId,
    mode: LockMode,
    /// Upgrade requests (holder of Shared wanting Exclusive) jump the queue
    /// and are flagged so grant logic treats the holder's existing share as
    /// its own.
    upgrade: bool,
    since: Nanos,
}

#[derive(Debug, Default)]
struct LockEntry {
    granted: Vec<(TxnId, LockMode)>,
    queue: VecDeque<QueuedRequest>,
}

impl LockEntry {
    fn holds(&self, txn: TxnId) -> Option<LockMode> {
        self.granted
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    /// Can `txn` acquire `mode` right now, given current holders?
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(mode))
    }
}

/// Counters for the §5.6-style lock overhead breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    pub acquires: u64,
    pub immediate_grants: u64,
    pub waits: u64,
    pub upgrades: u64,
    pub releases: u64,
    pub deadlocks_detected: u64,
    pub timeouts: u64,
}

/// A strict two-phase-locking lock table for one single-threaded partition.
///
/// Invariants maintained:
/// * every granted group is mutually compatible;
/// * wait queues are FIFO except that upgrades go to the front;
/// * a transaction waits on at most one key at a time (execution within a
///   partition is serial, so a suspended transaction has exactly one
///   outstanding request).
#[derive(Debug, Default)]
pub struct LockManager {
    table: FxHashMap<LockKey, LockEntry>,
    /// Keys held per transaction, in acquisition order.
    held: FxHashMap<TxnId, Vec<LockKey>>,
    /// The single key each waiting transaction is queued on.
    waiting_on: FxHashMap<TxnId, LockKey>,
    /// Registered multi-partition transactions (victim selection prefers
    /// killing single-partition transactions).
    multi_partition: FxHashMap<TxnId, bool>,
    /// Emptied entries and held-key lists of finished transactions, kept
    /// for the next key and transaction: an entry lives only while its key
    /// is locked, so without these every lock taken allocates a grant
    /// list and every transaction a key list. Never more than the peak
    /// number of locked keys / active transactions.
    spare_entries: Vec<LockEntry>,
    spare_held: Vec<Vec<LockKey>>,
    pub stats: LockStats,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tell the lock manager whether `txn` is multi-partition (affects
    /// deadlock victim choice and timeout handling).
    pub fn register_txn(&mut self, txn: TxnId, multi_partition: bool) {
        self.multi_partition.insert(txn, multi_partition);
    }

    pub fn is_multi_partition(&self, txn: TxnId) -> bool {
        self.multi_partition.get(&txn).copied().unwrap_or(false)
    }

    /// Number of transactions currently holding or waiting for any lock.
    pub fn active_txns(&self) -> usize {
        self.multi_partition.len()
    }

    /// True if `txn` currently holds `key` in a mode covering `mode`.
    pub fn holds(&self, txn: TxnId, key: LockKey, mode: LockMode) -> bool {
        self.table
            .get(&key)
            .and_then(|e| e.holds(txn))
            .is_some_and(|m| m.covers(mode))
    }

    /// The key `txn` is blocked on, if any.
    pub fn waiting_on(&self, txn: TxnId) -> Option<LockKey> {
        self.waiting_on.get(&txn).copied()
    }

    /// Request `key` in `mode` for `txn` at time `now`.
    ///
    /// Returns [`AcquireOutcome::Waiting`] if the request was queued; the
    /// transaction must suspend until a later release returns it as
    /// runnable (see `release_all`). A transaction may not issue a new
    /// request while waiting.
    pub fn acquire(
        &mut self,
        txn: TxnId,
        key: LockKey,
        mode: LockMode,
        now: Nanos,
    ) -> AcquireOutcome {
        debug_assert!(
            !self.waiting_on.contains_key(&txn),
            "{txn} issued a lock request while already waiting"
        );
        self.stats.acquires += 1;
        let spare_entries = &mut self.spare_entries;
        let entry = self
            .table
            .entry(key)
            .or_insert_with(|| spare_entries.pop().unwrap_or_default());

        if let Some(held) = entry.holds(txn) {
            if held.covers(mode) {
                self.stats.immediate_grants += 1;
                return AcquireOutcome::Granted;
            }
            // Upgrade Shared → Exclusive.
            self.stats.upgrades += 1;
            if entry.granted.len() == 1 {
                // Sole holder: upgrade in place.
                entry.granted[0].1 = LockMode::Exclusive;
                self.stats.immediate_grants += 1;
                return AcquireOutcome::Granted;
            }
            // Other holders present: wait at the *front* of the queue.
            entry.queue.push_front(QueuedRequest {
                txn,
                mode: LockMode::Exclusive,
                upgrade: true,
                since: now,
            });
            self.waiting_on.insert(txn, key);
            self.stats.waits += 1;
            return AcquireOutcome::Waiting;
        }

        // FIFO fairness: only grant immediately if nothing is queued and
        // the request is compatible with every current holder.
        if entry.queue.is_empty() && entry.grantable(txn, mode) {
            entry.granted.push((txn, mode));
            Self::note_held(&mut self.held, &mut self.spare_held, txn, key);
            self.stats.immediate_grants += 1;
            return AcquireOutcome::Granted;
        }

        entry.queue.push_back(QueuedRequest {
            txn,
            mode,
            upgrade: false,
            since: now,
        });
        self.waiting_on.insert(txn, key);
        self.stats.waits += 1;
        AcquireOutcome::Waiting
    }

    /// Release every lock `txn` holds (and any queued request it still
    /// has), returning the transactions whose queued requests were granted
    /// as a result, in grant order. The caller resumes those transactions.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.stats.releases += 1;
        let mut woken = Vec::new();

        // Drop a queued request if the txn was still waiting (abort path).
        if let Some(key) = self.waiting_on.remove(&txn) {
            if let Some(entry) = self.table.get_mut(&key) {
                entry.queue.retain(|q| q.txn != txn);
                // Removing a queue head may unblock followers.
                self.promote(key, &mut woken);
            }
        }

        if let Some(mut keys) = self.held.remove(&txn) {
            for key in keys.drain(..) {
                if let Some(entry) = self.table.get_mut(&key) {
                    entry.granted.retain(|(t, _)| *t != txn);
                    self.promote(key, &mut woken);
                }
            }
            self.spare_held.push(keys);
        }
        self.multi_partition.remove(&txn);

        // A transaction might appear once per key it was waiting on; since
        // each waits on one key, duplicates cannot occur, but keep the
        // contract tight.
        debug_assert!({
            let mut w = woken.clone();
            w.sort();
            w.dedup();
            w.len() == woken.len()
        });
        for t in &woken {
            self.waiting_on.remove(t);
        }
        woken
    }

    /// Record that `txn` now holds `key`.
    fn note_held(
        held: &mut FxHashMap<TxnId, Vec<LockKey>>,
        spare_held: &mut Vec<Vec<LockKey>>,
        txn: TxnId,
        key: LockKey,
    ) {
        held.entry(txn)
            .or_insert_with(|| spare_held.pop().unwrap_or_default())
            .push(key);
    }

    /// Grant queued requests at `key` that are now compatible, FIFO.
    fn promote(&mut self, key: LockKey, woken: &mut Vec<TxnId>) {
        let Some(entry) = self.table.get_mut(&key) else {
            return;
        };
        while let Some(head) = entry.queue.front().copied() {
            let ok = if head.upgrade {
                // Upgrade: grantable when the upgrader is the sole holder.
                entry.granted.len() == 1 && entry.granted[0].0 == head.txn
            } else {
                entry.grantable(head.txn, head.mode)
            };
            if !ok {
                break;
            }
            entry.queue.pop_front();
            if head.upgrade {
                entry.granted[0].1 = LockMode::Exclusive;
            } else {
                entry.granted.push((head.txn, head.mode));
                Self::note_held(&mut self.held, &mut self.spare_held, head.txn, key);
            }
            woken.push(head.txn);
        }
        if entry.granted.is_empty() && entry.queue.is_empty() {
            self.spare_entries.extend(self.table.remove(&key));
        }
    }

    /// Transactions that block `waiter`: incompatible current holders of
    /// the key it waits on, plus incompatible requests queued ahead of it.
    /// This is the edge set of the waits-for graph.
    pub fn blockers(&self, waiter: TxnId) -> Vec<TxnId> {
        let Some(key) = self.waiting_on.get(&waiter) else {
            return Vec::new();
        };
        let Some(entry) = self.table.get(key) else {
            return Vec::new();
        };
        let my_pos = entry.queue.iter().position(|q| q.txn == waiter);
        let my_mode = my_pos
            .map(|i| entry.queue[i].mode)
            .unwrap_or(LockMode::Exclusive);
        let mut out: Vec<TxnId> = entry
            .granted
            .iter()
            .filter(|(t, m)| *t != waiter && !m.compatible(my_mode))
            .map(|(t, _)| *t)
            .collect();
        if let Some(pos) = my_pos {
            for q in entry.queue.iter().take(pos) {
                if q.txn != waiter && !(q.mode.compatible(my_mode)) {
                    out.push(q.txn);
                }
            }
        }
        out
    }

    /// Waiting transactions whose wait started more than `timeout` ago.
    /// Used for the distributed-deadlock defence: only multi-partition
    /// waits can participate in a distributed deadlock, but we report any
    /// expired wait and let the scheduler decide.
    pub fn expired_waits(&self, now: Nanos, timeout: Nanos) -> Vec<TxnId> {
        let mut out = Vec::new();
        for entry in self.table.values() {
            for q in &entry.queue {
                if now.saturating_sub(q.since) >= timeout {
                    out.push(q.txn);
                }
            }
        }
        // Lock-table iteration order is randomized; report victims in a
        // stable order so runs are deterministic.
        out.sort_unstable();
        out
    }

    /// Total number of keys with any lock state (table size).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Number of keys `txn` holds locks on.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.held.get(&txn).map_or(0, Vec::len)
    }

    /// Debug invariant check: every granted group mutually compatible, every
    /// waiter actually queued, `held` consistent with `table`.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (key, entry) in &self.table {
            for i in 0..entry.granted.len() {
                for j in (i + 1)..entry.granted.len() {
                    let (ta, ma) = entry.granted[i];
                    let (tb, mb) = entry.granted[j];
                    if ta == tb {
                        return Err(format!("{key}: {ta} granted twice"));
                    }
                    if !ma.compatible(mb) {
                        return Err(format!("{key}: incompatible grants {ta}/{tb}"));
                    }
                }
            }
            for q in &entry.queue {
                if self.waiting_on.get(&q.txn) != Some(key) {
                    return Err(format!("{key}: queued {} not in waiting_on", q.txn));
                }
            }
        }
        for (txn, keys) in &self.held {
            for key in keys {
                let ok = self.table.get(key).is_some_and(|e| e.holds(*txn).is_some());
                if !ok {
                    return Err(format!("{txn} claims {key} but table disagrees"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TxnId {
        TxnId::new(hcc_common::ClientId(0), n)
    }

    fn k(n: u64) -> LockKey {
        LockKey(n)
    }

    const NOW: Nanos = Nanos(0);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(2), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Granted
        );
        lm.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_blocks_shared() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(2), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Waiting
        );
        assert_eq!(lm.waiting_on(t(2)), Some(k(1)));
        lm.check_invariants().unwrap();
    }

    #[test]
    fn shared_blocks_exclusive() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(2), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Waiting
        );
    }

    #[test]
    fn reentrant_acquire_is_granted() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Granted
        );
        // Only one entry in held list per key.
        assert_eq!(lm.held_count(t(1)), 1);
    }

    #[test]
    fn release_wakes_fifo_order() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        assert_eq!(
            lm.acquire(t(2), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Waiting
        );
        assert_eq!(
            lm.acquire(t(3), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Waiting
        );
        let woken = lm.release_all(t(1));
        // Only t2 can be granted (exclusive); t3 stays queued behind it.
        assert_eq!(woken, vec![t(2)]);
        assert!(lm.holds(t(2), k(1), LockMode::Exclusive));
        assert_eq!(lm.waiting_on(t(3)), Some(k(1)));
        let woken = lm.release_all(t(2));
        assert_eq!(woken, vec![t(3)]);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn release_grants_multiple_compatible_readers() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(2), k(1), LockMode::Shared, NOW);
        lm.acquire(t(3), k(1), LockMode::Shared, NOW);
        let woken = lm.release_all(t(1));
        assert_eq!(woken, vec![t(2), t(3)]);
        assert!(lm.holds(t(2), k(1), LockMode::Shared));
        assert!(lm.holds(t(3), k(1), LockMode::Shared));
    }

    #[test]
    fn sole_holder_upgrades_in_place() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Shared, NOW);
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Granted
        );
        assert!(lm.holds(t(1), k(1), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_jumps_queue() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Shared, NOW);
        lm.acquire(t(2), k(1), LockMode::Shared, NOW);
        // t3 queues for exclusive; t1 then requests upgrade and must go
        // ahead of t3.
        assert_eq!(
            lm.acquire(t(3), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Waiting
        );
        assert_eq!(
            lm.acquire(t(1), k(1), LockMode::Exclusive, NOW),
            AcquireOutcome::Waiting
        );
        let woken = lm.release_all(t(2));
        assert_eq!(woken, vec![t(1)]);
        assert!(lm.holds(t(1), k(1), LockMode::Exclusive));
        assert_eq!(lm.waiting_on(t(3)), Some(k(1)));
    }

    #[test]
    fn fifo_prevents_barging_past_queue() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Shared, NOW);
        lm.acquire(t(2), k(1), LockMode::Exclusive, NOW); // queued
                                                          // A new shared request is compatible with the holder but must not
                                                          // barge ahead of the queued writer.
        assert_eq!(
            lm.acquire(t(3), k(1), LockMode::Shared, NOW),
            AcquireOutcome::Waiting
        );
    }

    #[test]
    fn abort_while_waiting_removes_queue_entry() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(2), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(3), k(1), LockMode::Exclusive, NOW);
        // t2 aborts while queued.
        let woken = lm.release_all(t(2));
        assert!(woken.is_empty());
        let woken = lm.release_all(t(1));
        assert_eq!(woken, vec![t(3)]);
    }

    #[test]
    fn blockers_reports_holders_and_queue_ahead() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(2), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(3), k(1), LockMode::Exclusive, NOW);
        let b2 = lm.blockers(t(2));
        assert_eq!(b2, vec![t(1)]);
        let mut b3 = lm.blockers(t(3));
        b3.sort();
        assert_eq!(b3, vec![t(1), t(2)]);
        assert!(lm.blockers(t(1)).is_empty());
    }

    #[test]
    fn expired_waits_respect_timestamps() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, Nanos(0));
        lm.acquire(t(2), k(1), LockMode::Exclusive, Nanos(1_000));
        lm.acquire(t(3), k(1), LockMode::Exclusive, Nanos(900_000));
        let expired = lm.expired_waits(Nanos(1_001_000), Nanos(1_000_000));
        assert_eq!(expired, vec![t(2)]);
    }

    #[test]
    fn table_shrinks_when_empty() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(1), k(2), LockMode::Shared, NOW);
        assert_eq!(lm.table_len(), 2);
        lm.release_all(t(1));
        assert_eq!(lm.table_len(), 0);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), k(1), LockMode::Exclusive, NOW);
        lm.acquire(t(2), k(1), LockMode::Exclusive, NOW);
        lm.release_all(t(1));
        assert_eq!(lm.stats.acquires, 2);
        assert_eq!(lm.stats.immediate_grants, 1);
        assert_eq!(lm.stats.waits, 1);
        assert_eq!(lm.stats.releases, 1);
    }

    #[test]
    fn register_and_query_multi_partition() {
        let mut lm = LockManager::new();
        lm.register_txn(t(1), true);
        lm.register_txn(t(2), false);
        assert!(lm.is_multi_partition(t(1)));
        assert!(!lm.is_multi_partition(t(2)));
        assert!(!lm.is_multi_partition(t(3)));
        assert_eq!(lm.active_txns(), 2);
        lm.release_all(t(1));
        assert_eq!(lm.active_txns(), 1);
    }
}
