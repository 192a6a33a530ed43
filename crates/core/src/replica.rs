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
//! * [`CommitGate`] — the primary's one release rule. A client result or
//!   a 2PC decision ack owed for a committed record leaves the node once
//!   that record is on every backup (the paper commits a transaction once
//!   it is on `k` replicas, §2.2) and in the durable log (group commit,
//!   §2.3). Its backup list is the ship-target list.
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
    FxHashSet, PartitionId, SchemeSwitch, TxnId, TxnResult, Vote,
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

/// Where a commit record sits in its primary's durable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Logged {
    /// Durability is off: the backups are the record's only copy.
    Off,
    /// Appended at this 1-based log index; durable once a sync covers it.
    At(u64),
    /// The append failed: the record is not in the log.
    Failed,
}

/// What a primary owes the outside world for one committed record.
#[derive(Debug)]
pub enum Owed<R> {
    /// The result of a single-partition transaction, for its client.
    Result {
        client: ClientId,
        txn: TxnId,
        result: TxnResult<R>,
    },
    /// A 2PC commit-decision ack, for the transaction's coordinator.
    Ack { txn: TxnId, to: CoordinatorRef },
}

/// What one [`CommitGate::release`] let out, for the group-commit counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Released {
    /// Results whose record had a log position (they waited on the log).
    pub results: u64,
    /// Results and acks released as not logged: their append failed or the
    /// stall guard abandoned their batch.
    pub unlogged: u64,
}

/// The primary's commit gate: the one rule for when a client result or a
/// decision ack may leave the node. Entries queue in commit order (record
/// seq and log index both ascend), and a prefix is released once each of
/// its records is on every backup and its log position is decided —
/// durable, or given up on: a failed append or a batch the stall guard
/// abandoned releases as not logged (a result becomes the retryable
/// [`AbortReason::LogStalled`], an ack says `logged: false`). With no
/// backups only the log counts, with the log off only the backups.
#[derive(Debug)]
pub struct CommitGate<R> {
    /// (slot, highest seq it acked) per backup: also where records ship.
    /// A handful of backups, linear scan.
    backups: Vec<(u32, u64)>,
    /// Log indexes `1..=durable` are synced.
    durable: u64,
    /// Log indexes `1..=abandoned` belong to batches the stall guard gave
    /// up on.
    abandoned: u64,
    queue: VecDeque<(u64, Logged, Owed<R>)>,
}

impl<R> CommitGate<R> {
    /// A gate over `backups`, each of which already holds records
    /// `1..=acked` (0 for an initial primary; a promoted backup's
    /// watermark, which its surviving siblings share).
    pub fn new(backups: impl IntoIterator<Item = u32>, acked: u64) -> Self {
        CommitGate {
            backups: backups.into_iter().map(|slot| (slot, acked)).collect(),
            durable: 0,
            abandoned: 0,
            queue: VecDeque::new(),
        }
    }

    /// The slots every commit record ships to.
    pub fn targets(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.backups.iter().map(|(slot, _)| *slot)
    }

    /// A recovered backup joins holding records `1..=seq` (its snapshot).
    pub fn join(&mut self, slot: u32, seq: u64) {
        match self.backups.iter_mut().find(|(s, _)| *s == slot) {
            Some(b) => b.1 = seq,
            None => self.backups.push((slot, seq)),
        }
    }

    /// A backup confirmed applying records up to `seq` (cumulative).
    pub fn on_ack(&mut self, slot: u32, seq: u64) {
        if let Some(b) = self.backups.iter_mut().find(|(s, _)| *s == slot) {
            b.1 = b.1.max(seq);
        }
    }

    /// A sync completed: log indexes `1..=durable` are durable.
    pub fn synced(&mut self, durable: u64) {
        self.durable = durable;
    }

    /// The stall guard gave up on every record appended so far.
    pub fn abandon(&mut self, appended: u64) {
        self.abandoned = appended;
    }

    /// Owe `owed` once record `seq`, logged at `log`, clears the gate.
    pub fn hold(&mut self, seq: u64, log: Logged, owed: Owed<R>) {
        self.queue.push_back((seq, log, owed));
    }

    /// Hand every entry at the head of the queue whose record is on every
    /// backup and whose log position is decided to `emit`, with whether its
    /// record is logged; a result that is not becomes `LogStalled`.
    pub fn release(&mut self, mut emit: impl FnMut(Owed<R>, bool)) -> Released {
        let acked = self
            .backups
            .iter()
            .map(|(_, s)| *s)
            .min()
            .unwrap_or(u64::MAX);
        let mut released = Released::default();
        while let Some(&(seq, log, _)) = self.queue.front() {
            let logged = match log {
                Logged::Off => true,
                Logged::At(n) if n <= self.durable => true,
                Logged::At(n) if n <= self.abandoned => false,
                Logged::At(_) => break,
                Logged::Failed => false,
            };
            if seq > acked {
                break;
            }
            let (_, _, mut owed) = self.queue.pop_front().expect("checked front");
            if let Owed::Result { result, .. } = &mut owed {
                released.results += u64::from(matches!(log, Logged::At(_)));
                if !logged {
                    *result = TxnResult::Aborted(AbortReason::LogStalled);
                }
            }
            released.unlogged += u64::from(!logged);
            emit(owed, logged);
        }
        released
    }

    /// The primary is crashing: release everything as it stands, as
    /// logged. Every queued record was shipped before the crash and reaches
    /// the backups on the same FIFO links, so the group's replication
    /// covers it and the dying log is not waited for.
    pub fn flush(self, emit: impl FnMut(Owed<R>)) {
        self.queue
            .into_iter()
            .map(|(_, _, owed)| owed)
            .for_each(emit);
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

    fn result(n: u32) -> Owed<u32> {
        Owed::Result {
            client: ClientId(0),
            txn: txid(n),
            result: TxnResult::Committed(n),
        }
    }

    fn ack(n: u32) -> Owed<u32> {
        Owed::Ack {
            txn: txid(n),
            to: CoordinatorRef::Central(hcc_common::CoordinatorId(0)),
        }
    }

    /// (txn, logged) of what a release emitted; a result released as not
    /// logged must read `LogStalled`.
    fn drain(gate: &mut CommitGate<u32>) -> Vec<(u32, bool)> {
        let mut out = Vec::new();
        gate.release(|owed, logged| {
            let txn = match owed {
                Owed::Result { txn, result, .. } => {
                    let stalled = TxnResult::Aborted(AbortReason::LogStalled);
                    assert!(logged || result == stalled, "{txn}");
                    txn
                }
                Owed::Ack { txn, .. } => txn,
            };
            out.push((txn.0 as u32, logged));
        });
        out
    }

    #[test]
    fn gate_waits_for_every_backup_and_the_log() {
        let mut gate = CommitGate::new([1, 2], 0);
        assert_eq!(gate.targets().collect::<Vec<_>>(), [1, 2]);
        gate.hold(1, Logged::At(1), result(1));
        gate.hold(2, Logged::At(2), ack(2));
        gate.on_ack(1, 2);
        gate.synced(2);
        assert_eq!(drain(&mut gate), [], "backup 2 has acked nothing");
        gate.on_ack(2, 1);
        assert_eq!(drain(&mut gate), [(1, true)], "a prefix, in commit order");
        gate.on_ack(2, 2);
        assert_eq!(drain(&mut gate), [(2, true)]);
        // The other order: on the backups first, durable last.
        gate.hold(3, Logged::At(3), result(3));
        gate.on_ack(1, 3);
        gate.on_ack(2, 3);
        assert_eq!(drain(&mut gate), []);
        gate.synced(3);
        let released = gate.release(|_, logged| assert!(logged));
        let waited = Released {
            results: 1,
            unlogged: 0,
        };
        assert_eq!(released, waited);
    }

    #[test]
    fn gate_without_backups_or_log_checks_only_the_other() {
        let mut gate = CommitGate::new([], 0);
        gate.hold(1, Logged::At(1), result(1));
        assert_eq!(drain(&mut gate), [], "no backups: the log decides");
        gate.synced(1);
        assert_eq!(drain(&mut gate), [(1, true)]);

        let mut gate = CommitGate::new([1], 0);
        gate.hold(1, Logged::Off, ack(1));
        assert_eq!(drain(&mut gate), [], "no log: the backup decides");
        gate.on_ack(1, 1);
        assert_eq!(drain(&mut gate), [(1, true)]);
    }

    #[test]
    fn failed_append_releases_as_not_logged_once_on_the_backups() {
        let mut gate = CommitGate::new([1], 0);
        gate.hold(1, Logged::Failed, result(1));
        gate.hold(2, Logged::Failed, ack(2));
        assert_eq!(drain(&mut gate), [], "still waits for the backup");
        gate.on_ack(1, 2);
        assert_eq!(drain(&mut gate), [(1, false), (2, false)]);
    }

    #[test]
    fn abandoned_batch_releases_unlogged_when_its_ack_comes_later() {
        let mut gate = CommitGate::new([1], 0);
        gate.hold(1, Logged::At(1), result(1));
        gate.hold(2, Logged::At(2), ack(2));
        gate.on_ack(1, 1);
        gate.abandon(2);
        let released = gate.release(|_, logged| assert!(!logged));
        let bounced = Released {
            results: 1,
            unlogged: 1,
        };
        assert_eq!(released, bounced);
        gate.hold(3, Logged::At(3), result(3));
        gate.on_ack(1, 3);
        assert_eq!(drain(&mut gate), [(2, false)], "abandoned, then acked");
        // A later sync covers record 3 (and, on the device, 1 and 2).
        gate.synced(3);
        assert_eq!(drain(&mut gate), [(3, true)]);
    }

    #[test]
    fn recovered_backup_joins_at_its_snapshot() {
        // A promoted primary starts over its surviving sibling at the
        // watermark they share; the failed node rejoins later.
        let mut gate = CommitGate::new([2], 5);
        gate.hold(6, Logged::Off, result(6));
        gate.join(0, 6);
        assert_eq!(gate.targets().collect::<Vec<_>>(), [2, 0]);
        gate.hold(7, Logged::Off, result(7));
        gate.on_ack(2, 7);
        assert_eq!(drain(&mut gate), [(6, true)], "slot 0 holds 1..=6");
        gate.on_ack(0, 7);
        assert_eq!(drain(&mut gate), [(7, true)]);
    }

    #[test]
    fn crash_flush_releases_everything_as_it_stands() {
        let mut gate = CommitGate::new([1], 0);
        gate.hold(1, Logged::At(1), result(1));
        gate.hold(2, Logged::Failed, ack(2));
        let mut out = Vec::new();
        gate.flush(|owed| out.push(owed));
        let committed = TxnResult::Committed(1);
        assert!(
            matches!(&out[..], [Owed::Result { result, .. }, Owed::Ack { .. }] if *result == committed)
        );
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
