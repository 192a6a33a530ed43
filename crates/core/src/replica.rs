//! The shared replication core (paper §3.2–§3.3).
//!
//! One protocol for primary/backup replication, spoken by the replica
//! actors of `hcc-runtime` under every driver (threads, reactor,
//! simulator):
//!
//! * [`ReplicationSession`] — the **primary side**. Buffers each in-flight
//!   transaction's fragments (latest fragment per round wins, so a squashed
//!   speculative continuation is superseded by its re-sent version), and on
//!   commit emits a sequence-numbered [`CommitRecord`] — commit-order log
//!   shipping.
//! * [`ReplicaCore`] — the **replica side**. Replays records strictly in
//!   sequence order onto a replica engine ("the backups execute the
//!   transactions in the sequential order received from the primary",
//!   §2.2), without locks or undo. A lost/reordered record or a fragment
//!   that fails to re-execute is a [`ReplayError`] the driver must surface,
//!   not a `debug_assert`.
//! * [`AckTracker`] — the primary's acked watermark over its backups: the
//!   highest sequence number every backup has confirmed applying. The
//!   paper commits a transaction once it is on `k` replicas (§2.2); the
//!   runtime holds single-partition results until the transaction's record
//!   is under the watermark.
//!
//! Failover and §3.3 recovery are built on these pieces by the drivers:
//! promotion turns a `ReplicaCore` position into a `ReplicationSession`
//! resumed at the same sequence number (log continuity for the surviving
//! backups), and a recovering node is seeded by
//! [`ReplicaCore::reset_to`] with a state snapshot taken at a known
//! watermark, then catches up from the live primary's log.

use crate::engine::ExecutionEngine;
use hcc_common::stats::ReplicationCounters;
use hcc_common::{
    AbortReason, ClientId, CommitRecord, CoordinatorRef, FragmentResponse, FragmentTask, FxHashMap,
    FxHashSet, PartitionId, SchemeSwitch, TxnId, Vote,
};
use std::collections::VecDeque;

/// How many recently applied transaction ids a replica remembers (the
/// exactly-once guard for in-doubt commit redelivery after a promotion).
/// Far larger than any in-flight horizon, same reasoning as the
/// coordinator's history window.
const APPLIED_WINDOW: usize = 1 << 16;

/// Why a replica could not apply a commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The record's sequence number is ahead of the replica's watermark:
    /// at least one earlier record was lost or reordered.
    SequenceGap { expected: u64, got: u64 },
    /// A committed fragment failed to re-execute on the replica — the
    /// replica's state has diverged from the primary's.
    FragmentFailed { txn: TxnId, reason: AbortReason },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::SequenceGap { expected, got } => {
                write!(f, "commit log gap: expected seq {expected}, got {got}")
            }
            ReplayError::FragmentFailed { txn, reason } => {
                write!(f, "replay of committed {txn} failed: {reason:?}")
            }
        }
    }
}

/// Primary-side replication state for one partition: the in-flight fragment
/// buffer and the commit-order sequencer.
#[derive(Debug)]
pub struct ReplicationSession<F> {
    /// Fragments of in-flight transactions, by round (latest per round
    /// wins).
    pending: FxHashMap<TxnId, Vec<FragmentTask<F>>>,
    /// Sequence number of the last commit record emitted.
    seq: u64,
    /// Adaptive scheme switch waiting to ride the next commit record
    /// shipped (ISSUE 10): set by the driver right after a live swap,
    /// taken by [`Self::on_commit`].
    pending_switch: Option<SchemeSwitch>,
}

impl<F: Clone> ReplicationSession<F> {
    pub fn new() -> Self {
        Self::resume_from(0)
    }

    /// Start a session whose next commit record will carry `seq + 1` — how
    /// a promoted backup continues its dead primary's log without a gap.
    pub fn resume_from(seq: u64) -> Self {
        ReplicationSession {
            pending: FxHashMap::default(),
            seq,
            pending_switch: None,
        }
    }

    /// The adaptive controller swapped this partition's scheduler: stamp
    /// the transition onto the next commit record shipped so replicas (and
    /// hence any promoted backup) land in the same scheme at the same
    /// transition epoch. A second swap before any commit ships supersedes
    /// the first — replicas only need the latest position.
    pub fn mark_scheme_switch(&mut self, sw: SchemeSwitch) {
        self.pending_switch = Some(sw);
    }

    /// Sequence number of the last record emitted (the log position).
    pub fn shipped(&self) -> u64 {
        self.seq
    }

    /// Number of transactions currently buffered (in flight).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Record a delivered fragment for later replay. A re-sent fragment
    /// (same round, after a speculative squash) supersedes the original.
    pub fn record_fragment(&mut self, task: &FragmentTask<F>) {
        let entry = self.pending.entry(task.txn).or_default();
        entry.retain(|t| t.round != task.round);
        entry.push(task.clone());
    }

    /// The transaction committed here: emit its commit record (fragments in
    /// round order, next sequence number). `None` if no fragment was ever
    /// recorded — e.g. a decision for a transaction a fresh post-failover
    /// primary never executed.
    pub fn on_commit(&mut self, txn: TxnId) -> Option<CommitRecord<F>> {
        let mut frags = self.pending.remove(&txn)?;
        frags.sort_by_key(|t| t.round);
        self.seq += 1;
        Some(CommitRecord {
            seq: self.seq,
            txn,
            frags,
            scheme_switch: self.pending_switch.take(),
        })
    }

    /// The transaction aborted here: drop its buffered fragments.
    pub fn on_abort(&mut self, txn: TxnId) {
        self.pending.remove(&txn);
    }

    /// Drain the in-flight buffer — what a crashing primary bounces back to
    /// coordinators/clients as [`AbortReason::PartitionFailed`]. Sorted by
    /// transaction id so the bounce order is deterministic.
    pub fn take_in_flight(&mut self) -> Vec<(TxnId, Vec<FragmentTask<F>>)> {
        let mut v: Vec<_> = std::mem::take(&mut self.pending).into_iter().collect();
        v.sort_by_key(|(txn, _)| *txn);
        v
    }
}

impl<F: Clone> Default for ReplicationSession<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// Replica-side replay state for one partition: the sequence-checked
/// applier. The engine itself is owned by the replica actor and passed in
/// per record, which is what lets a role change
/// (backup → primary, failed → recovering) reuse the same engine slot.
#[derive(Debug, Default)]
pub struct ReplicaCore {
    /// Highest sequence number applied (the replica's watermark).
    applied: u64,
    /// Recently applied transaction ids (bounded window). A promoted
    /// primary inherits this set so a re-delivered in-doubt commit whose
    /// record *did* reach the backups before the crash is recognized and
    /// acknowledged instead of applied twice.
    applied_txns: FxHashSet<TxnId>,
    applied_order: VecDeque<TxnId>,
    /// Latest adaptive scheme transition observed in the applied commit
    /// stream (ISSUE 10). `None` until the primary's first switch ships. A
    /// promotion reads this to land the new primary in the same scheme at
    /// the same transition epoch as the one it replaces.
    scheme_switch: Option<SchemeSwitch>,
    pub counters: ReplicationCounters,
}

impl ReplicaCore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The replica's watermark: records `1..=watermark()` are applied.
    pub fn watermark(&self) -> u64 {
        self.applied
    }

    /// Reset the watermark after installing a state snapshot taken at
    /// `seq` — the §3.3 rejoin path.
    pub fn reset_to(&mut self, seq: u64) {
        self.applied = seq;
    }

    /// Replay one commit record onto `engine`, in round order, without
    /// locks or undo. Duplicates (seq at or below the watermark) are
    /// skipped idempotently; a gap or a failing fragment is an error the
    /// caller must surface. Returns the logical ops replayed.
    pub fn apply<E: ExecutionEngine>(
        &mut self,
        engine: &mut E,
        record: &CommitRecord<E::Fragment>,
    ) -> Result<u32, ReplayError> {
        if record.seq <= self.applied {
            self.counters.records_skipped += 1;
            return Ok(0);
        }
        if record.seq != self.applied + 1 {
            self.counters.replay_failures += 1;
            return Err(ReplayError::SequenceGap {
                expected: self.applied + 1,
                got: record.seq,
            });
        }
        let mut ops = 0;
        for task in &record.frags {
            let out = engine.execute(record.txn, &task.fragment, false);
            ops += out.ops;
            if let Err(reason) = out.result {
                self.counters.replay_failures += 1;
                return Err(ReplayError::FragmentFailed {
                    txn: record.txn,
                    reason,
                });
            }
        }
        engine.forget(record.txn);
        self.applied = record.seq;
        if let Some(sw) = record.scheme_switch {
            self.scheme_switch = Some(sw);
        }
        self.counters.records_applied += 1;
        self.applied_txns.insert(record.txn);
        self.applied_order.push_back(record.txn);
        while self.applied_order.len() > APPLIED_WINDOW {
            if let Some(old) = self.applied_order.pop_front() {
                self.applied_txns.remove(&old);
            }
        }
        Ok(ops)
    }

    /// Hand the applied-transaction window to a promotion (the new
    /// primary's exactly-once guard for redelivered in-doubt commits).
    pub fn take_applied_txns(&mut self) -> FxHashSet<TxnId> {
        self.applied_order.clear();
        std::mem::take(&mut self.applied_txns)
    }

    /// Latest adaptive scheme transition in the applied commit stream
    /// (`None` = still on the initial configured scheme).
    pub fn scheme_switch(&self) -> Option<SchemeSwitch> {
        self.scheme_switch
    }
}

/// Where the failover bounce of one in-flight transaction must go — the
/// "your participant's node just died" signal a crashing primary sends for
/// everything in its [`ReplicationSession`] (and a dead node keeps sending
/// for late-arriving fragments).
pub enum FailoverBounce<R> {
    /// Single-partition work: the client is waiting on this node directly.
    ToClient { client: ClientId },
    /// Multi-partition work: an abort-voting response to the 2PC
    /// coordinator of record. Coordinators treat `PartitionFailed`
    /// responses as round-agnostic failure notifications.
    ToCoordinator {
        dest: CoordinatorRef,
        response: FragmentResponse<R>,
    },
}

/// Build the bounce for an in-flight transaction from its recorded
/// fragments (any fragment determines the destination; the payload is the
/// retryable [`AbortReason::PartitionFailed`]). `None` if no fragment was
/// recorded.
pub fn failover_bounce<F, R>(
    partition: PartitionId,
    txn: TxnId,
    frags: &[FragmentTask<F>],
) -> Option<FailoverBounce<R>> {
    let task = frags.first()?;
    if task.multi_partition {
        Some(FailoverBounce::ToCoordinator {
            dest: task.coordinator,
            response: FragmentResponse {
                txn,
                partition,
                round: task.round,
                attempt: 0,
                payload: Err(AbortReason::PartitionFailed),
                vote: Some(Vote::Abort(AbortReason::PartitionFailed)),
                depends_on: None,
            },
        })
    } else {
        Some(FailoverBounce::ToClient {
            client: task.client,
        })
    }
}

/// The primary's view of its backups' progress: per-backup cumulative acks
/// and the minimum — the **acked watermark** under which results may be
/// released (§2.2: a transaction commits once it is on `k` replicas).
#[derive(Debug, Default)]
pub struct AckTracker {
    /// (backup key, highest acked seq). A handful of backups, linear scan.
    acked: Vec<(usize, u64)>,
}

impl AckTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Track a backup from `seq` onward (0 for a from-the-start backup, the
    /// snapshot watermark for a freshly recovered one).
    pub fn add_backup(&mut self, key: usize, seq: u64) {
        match self.acked.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = seq,
            None => self.acked.push((key, seq)),
        }
    }

    /// A backup confirmed applying records up to `seq` (cumulative).
    pub fn on_ack(&mut self, key: usize, seq: u64) {
        if let Some(slot) = self.acked.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = slot.1.max(seq);
        }
    }

    /// Highest sequence number *every* tracked backup has applied.
    /// `u64::MAX` with no backups (nothing to wait for).
    pub fn min_acked(&self) -> u64 {
        self.acked.iter().map(|(_, s)| *s).min().unwrap_or(u64::MAX)
    }

    pub fn backups(&self) -> usize {
        self.acked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{TestEngine, TestFragment};
    use hcc_common::{ClientId, CoordinatorRef};

    fn task(txn: TxnId, round: u32, frag: TestFragment) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn,
            coordinator: CoordinatorRef::Central(hcc_common::CoordinatorId(0)),
            client: ClientId(0),
            fragment: frag,
            multi_partition: false,
            last_fragment: true,
            round,
            can_abort: false,
        }
    }

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(0), n)
    }

    #[test]
    fn commit_records_are_densely_sequenced() {
        let mut s: ReplicationSession<TestFragment> = ReplicationSession::new();
        s.record_fragment(&task(txid(1), 0, TestFragment::add(1, 1)));
        s.record_fragment(&task(txid(2), 0, TestFragment::add(2, 1)));
        let r1 = s.on_commit(txid(1)).expect("recorded");
        let r2 = s.on_commit(txid(2)).expect("recorded");
        assert_eq!((r1.seq, r2.seq), (1, 2));
        assert_eq!(s.shipped(), 2);
        assert!(s.on_commit(txid(3)).is_none(), "never-recorded txn");
    }

    #[test]
    fn resent_fragment_supersedes_same_round() {
        let mut s: ReplicationSession<TestFragment> = ReplicationSession::new();
        s.record_fragment(&task(txid(1), 0, TestFragment::add(1, 1)));
        s.record_fragment(&task(txid(1), 1, TestFragment::add(2, 1)));
        // Round-0 re-executed after a squash: replaces, not appends.
        s.record_fragment(&task(txid(1), 0, TestFragment::add(3, 1)));
        let rec = s.on_commit(txid(1)).unwrap();
        assert_eq!(rec.frags.len(), 2);
        assert_eq!(rec.frags[0].round, 0);
        assert_eq!(rec.frags[1].round, 1);
    }

    #[test]
    fn replay_applies_in_order_and_skips_duplicates() {
        let mut s: ReplicationSession<TestFragment> = ReplicationSession::new();
        let mut replica = ReplicaCore::new();
        let mut engine = TestEngine::new();
        s.record_fragment(&task(txid(1), 0, TestFragment::set(7, 41)));
        s.record_fragment(&task(txid(2), 0, TestFragment::add(7, 1)));
        let r1 = s.on_commit(txid(1)).unwrap();
        let r2 = s.on_commit(txid(2)).unwrap();
        replica.apply(&mut engine, &r1).unwrap();
        replica.apply(&mut engine, &r1).unwrap(); // duplicate: skipped
        replica.apply(&mut engine, &r2).unwrap();
        assert_eq!(engine.get(7), 42);
        assert_eq!(replica.watermark(), 2);
        assert_eq!(replica.counters.records_applied, 2);
        assert_eq!(replica.counters.records_skipped, 1);
        assert_eq!(replica.counters.replay_failures, 0);
    }

    #[test]
    fn sequence_gap_is_an_error_not_an_assert() {
        let mut replica = ReplicaCore::new();
        let mut engine = TestEngine::new();
        let rec = CommitRecord {
            seq: 3,
            txn: txid(9),
            frags: vec![task(txid(9), 0, TestFragment::add(1, 1))],
            scheme_switch: None,
        };
        let err = replica.apply(&mut engine, &rec).unwrap_err();
        assert_eq!(
            err,
            ReplayError::SequenceGap {
                expected: 1,
                got: 3
            }
        );
        assert_eq!(replica.counters.replay_failures, 1);
        assert_eq!(replica.watermark(), 0, "gap must not advance");
    }

    #[test]
    fn failing_fragment_is_an_error() {
        let mut replica = ReplicaCore::new();
        let mut engine = TestEngine::new();
        let rec = CommitRecord {
            seq: 1,
            txn: txid(4),
            frags: vec![task(txid(4), 0, TestFragment::failing())],
            scheme_switch: None,
        };
        let err = replica.apply(&mut engine, &rec).unwrap_err();
        assert!(matches!(err, ReplayError::FragmentFailed { .. }));
        assert_eq!(replica.counters.replay_failures, 1);
    }

    #[test]
    fn snapshot_reset_resumes_from_watermark() {
        let mut replica = ReplicaCore::new();
        let mut engine = TestEngine::new();
        replica.reset_to(10); // installed a snapshot taken at seq 10
        let dup = CommitRecord {
            seq: 9,
            txn: txid(1),
            frags: vec![],
            scheme_switch: None,
        };
        replica.apply(&mut engine, &dup).unwrap(); // pre-snapshot: skipped
        let next = CommitRecord {
            seq: 11,
            txn: txid(2),
            frags: vec![task(txid(2), 0, TestFragment::add(5, 1))],
            scheme_switch: None,
        };
        replica.apply(&mut engine, &next).unwrap();
        assert_eq!(replica.watermark(), 11);
    }

    #[test]
    fn ack_tracker_minimum_over_backups() {
        let mut acks = AckTracker::new();
        assert_eq!(acks.min_acked(), u64::MAX, "no backups, nothing to wait");
        acks.add_backup(0, 0);
        acks.add_backup(1, 0);
        acks.on_ack(0, 5);
        acks.on_ack(1, 3);
        assert_eq!(acks.min_acked(), 3);
        acks.on_ack(1, 7);
        assert_eq!(acks.min_acked(), 5);
        // A recovered backup joins at its snapshot watermark.
        acks.add_backup(2, 6);
        assert_eq!(acks.min_acked(), 5);
    }

    #[test]
    fn promoted_session_continues_the_log() {
        let mut replica = ReplicaCore::new();
        let mut engine = TestEngine::new();
        let rec = CommitRecord {
            seq: 1,
            txn: txid(1),
            frags: vec![task(txid(1), 0, TestFragment::add(1, 1))],
            scheme_switch: None,
        };
        replica.apply(&mut engine, &rec).unwrap();
        // Promotion: the backup's watermark seeds the new session.
        let mut s: ReplicationSession<TestFragment> =
            ReplicationSession::resume_from(replica.watermark());
        s.record_fragment(&task(txid(2), 0, TestFragment::add(1, 1)));
        let next = s.on_commit(txid(2)).unwrap();
        assert_eq!(next.seq, 2, "no gap across the promotion");
    }
}
