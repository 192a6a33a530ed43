//! Epoch-batched deterministic cross-shard sequencing (ISSUE 8).
//!
//! With sharded coordinators, §4.2.2's dependency chains are only valid
//! within one shard: unaligned multi-partition traffic degrades into
//! blocking waits and retryable `CrossCoordinator` expiry aborts because
//! no global dispatch order exists across shards. This module supplies
//! that order, Calvin/STAR style, with no extra consensus hop:
//!
//! * Each coordinator shard's
//!   [`Coordinator`](crate::coordinator::Coordinator) runs a
//!   `ShardSequencer`: multi-partition invocations accumulate in the
//!   current **epoch**'s local log and are dispatched together when the
//!   epoch closes — on a count boundary
//!   ([`EPOCH_BATCH`] invocations), an age boundary (the oldest has
//!   waited [`EPOCH_MAX_AGE`]), or a cascade (a peer shard closed the
//!   same epoch, see below). Both boundaries are constants: sequencing
//!   is a switch (`SystemConfig::sequencing`), not a tuning surface.
//!   The coordinator broadcasts the closed [`EpochLog`] to every
//!   partition and every peer shard *before* the round-0 fragments of its
//!   transactions, on the same FIFO links. This shard half is private to
//!   the coordinator, which owns the closes, the broadcast and the era
//!   change; a driver only routes what the coordinator emits.
//! * Each partition primary runs a [`PartitionSequencer`]: it collects
//!   the per-shard logs and admits multi-partition round-0 fragments in
//!   the **round-robin interleave** of the per-shard logs (epoch by
//!   epoch, shard 0..N within an epoch). The merge rule *is* the global
//!   order — every partition computes the same interleave locally.
//!
//! Because a shard emits each log entry's fragments at the same instant
//! as the log itself, every admitted transaction's fragment is already in
//! flight when its log arrives: admission only ever waits on *arrival
//! interleaving*, never on execution, so holds are brief and can never
//! deadlock. And because all partitions admit in one global order, the
//! cross-shard wait cycles that §4.2.2 had to break by expiry cannot form
//! — speculation chains legally span coordinator shards.
//!
//! Single-partition transactions never touch any of this: they are sent
//! directly to their partition, exactly as before.
//!
//! # Cascade closes
//!
//! The round-robin merge needs a log from *every* shard for an epoch
//! before that epoch can dispatch, so an idle shard would stall the
//! world. Instead, logs are also broadcast shard→shard: a shard that
//! receives a peer's log for an epoch at or beyond its own open epoch
//! force-closes its epochs up to the peer's (possibly empty — an empty
//! log is a first-class message). Closes are monotone, so the cascade
//! terminates, and a shard that is *ahead* simply ignores peer logs for
//! epochs it already closed.
//!
//! # Failover: eras
//!
//! Sequencing state cannot survive a partition failover — the promoted
//! backup has never seen the logs its predecessor merged. The layer
//! resets by **era**: every shard counts the membership updates it has
//! consumed; on each update it bounces its still-buffered (unsequenced)
//! invocations back to their clients with a retryable abort, emits an
//! `era_end` marker log, and restarts epoch numbering in the next era.
//! Surviving partitions drain the old era completely (the markers close
//! every gap) and then advance. A promoted primary starts **unsynced**:
//! it buffers logs until it has seen every shard's `era_end` marker —
//! proof, by link FIFO-ness, that it will see the *whole* next era — and
//! joins at that era's epoch 0, discarding anything older. Fragments
//! with no matching log entry (in-doubt redeliveries, discarded-era
//! stragglers) pass straight through: redeliveries are already globally
//! committed, and stragglers all touched the failed partition, so the
//! membership update is already aborting them at their shard.

use hcc_common::stats::SequencerStats;
use hcc_common::{
    ClientId, CoordinatorId, CoordinatorRef, FragmentTask, FxHashMap, FxHashSet, Nanos,
    PartitionId, TxnId,
};
use std::collections::VecDeque;

use crate::procedure::Procedure;

/// Count boundary: a shard closes its open epoch once this many
/// multi-partition invocations have accumulated.
pub const EPOCH_BATCH: u32 = 64;

/// Age boundary: an open epoch holding at least one invocation closes
/// once the oldest has waited this long (200 µs), bounding the
/// sequencing hold under light load. Drivers tick coordinator shards at
/// least every half of it.
pub const EPOCH_MAX_AGE: Nanos = Nanos(200_000);

/// One shard's log for one closed epoch, broadcast to every partition and
/// every peer shard. Deliberately payload-free (transaction ids and
/// participant sets only) so it is cheap to clone and fits any driver's
/// message enum without generics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochLog {
    pub shard: CoordinatorId,
    /// Sequencing era = membership updates consumed by the shard.
    pub era: u32,
    /// Epoch number within the era (restarts at 0 each era).
    pub epoch: u64,
    /// The shard's multi-partition arrivals for this epoch, in arrival
    /// order, with their round-0 participant sets.
    pub entries: Vec<(TxnId, Vec<PartitionId>)>,
    /// True for the marker a shard emits when a membership update ends
    /// its era: "this shard has no epochs >= `epoch` in era `era`".
    /// Marker logs carry no entries.
    pub era_end: bool,
}

/// Where a shard's epoch log should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochLogDest {
    Partition(PartitionId),
    Shard(CoordinatorId),
}

/// A buffered multi-partition invocation, held until its epoch closes.
pub(crate) struct PendingInvoke<F, R> {
    pub(crate) txn: TxnId,
    pub(crate) client: ClientId,
    pub(crate) procedure: Box<dyn Procedure<F, R>>,
    pub(crate) can_abort: bool,
    enqueued_at: Nanos,
    /// Round-0 participants, peeked via [`Procedure::participants`] (the
    /// procedure is pure, so the later dispatch sees the same set).
    participants: Vec<PartitionId>,
}

/// A closed epoch: the log to broadcast, then the invocations to dispatch
/// (in log order, *after* the log, on the same links).
pub(crate) struct ClosedEpoch<F, R> {
    pub(crate) log: EpochLog,
    pub(crate) invokes: Vec<PendingInvoke<F, R>>,
}

/// Why an epoch closed (statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseKind {
    /// The count boundary: [`EPOCH_BATCH`] invocations accumulated.
    Count,
    /// The age boundary: the oldest buffered invocation waited
    /// [`EPOCH_MAX_AGE`].
    Age,
    /// A peer shard's log for this epoch (or a later one) arrived.
    Cascade,
}

/// Per-coordinator-shard sequencing state: buffers multi-partition
/// invocations into the open epoch and closes epochs deterministically.
pub(crate) struct ShardSequencer<F, R> {
    shard: CoordinatorId,
    /// Partition and shard counts: every log goes to each partition and
    /// each peer shard ([`broadcast_dests`]).
    partitions: u32,
    shards: u32,
    era: u32,
    /// The open (not yet closed) epoch number.
    epoch: u64,
    buf: Vec<PendingInvoke<F, R>>,
    stats: SequencerStats,
}

impl<F, R> ShardSequencer<F, R> {
    /// Shard `shard`'s sequencer among `shards` over `partitions`,
    /// closing epochs at [`EPOCH_BATCH`] invocations.
    pub(crate) fn new(shard: CoordinatorId, partitions: u32, shards: u32) -> Self {
        ShardSequencer {
            shard,
            partitions,
            shards,
            era: 0,
            epoch: 0,
            buf: Vec::new(),
            stats: SequencerStats::default(),
        }
    }

    /// True when no invocation is buffered (nothing for an age-close to
    /// close).
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Every destination of this shard's logs.
    pub(crate) fn dests(&self) -> impl Iterator<Item = EpochLogDest> {
        broadcast_dests(self.partitions, self.shards, self.shard)
    }

    /// The age boundary: closes and returns the open epoch once its
    /// oldest buffered invocation has waited [`EPOCH_MAX_AGE`].
    pub(crate) fn close_if_aged(&mut self, now: Nanos) -> Option<ClosedEpoch<F, R>> {
        let oldest = self.buf.first()?.enqueued_at;
        (now.saturating_sub(oldest) >= EPOCH_MAX_AGE).then(|| self.close(now, CloseKind::Age))
    }

    /// Buffer one multi-partition invocation; closes and returns the open
    /// epoch when the count boundary is reached.
    pub(crate) fn push(
        &mut self,
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
        now: Nanos,
    ) -> Option<ClosedEpoch<F, R>> {
        let participants = procedure.participants();
        self.buf.push(PendingInvoke {
            txn,
            client,
            procedure,
            can_abort,
            enqueued_at: now,
            participants,
        });
        (self.buf.len() >= EPOCH_BATCH as usize).then(|| self.close(now, CloseKind::Count))
    }

    /// Close the open epoch (possibly empty) and advance to the next.
    pub(crate) fn close(&mut self, now: Nanos, kind: CloseKind) -> ClosedEpoch<F, R> {
        let invokes = std::mem::take(&mut self.buf);
        self.stats.epochs_closed += 1;
        self.stats.batch_sum += invokes.len() as u64;
        self.stats.batch_max = self.stats.batch_max.max(invokes.len() as u64);
        match kind {
            CloseKind::Count => {}
            CloseKind::Age => self.stats.age_closes += 1,
            CloseKind::Cascade => self.stats.forced_closes += 1,
        }
        for p in &invokes {
            self.stats
                .seq_hold
                .record(now.saturating_sub(p.enqueued_at));
        }
        let log = EpochLog {
            shard: self.shard,
            era: self.era,
            epoch: self.epoch,
            entries: invokes
                .iter()
                .map(|p| (p.txn, p.participants.clone()))
                .collect(),
            era_end: false,
        };
        self.epoch += 1;
        ClosedEpoch { log, invokes }
    }

    /// A peer shard's log arrived: force-close our epochs up to and
    /// including the peer's, so the partitions' round-robin merge can
    /// advance past us even when we are idle. Ignores logs from other
    /// eras (eras re-synchronize via the membership updates every shard
    /// consumes) and epochs we already closed.
    pub(crate) fn on_peer_log(&mut self, log: &EpochLog, now: Nanos) -> Vec<ClosedEpoch<F, R>> {
        let mut closed = Vec::new();
        if log.era == self.era {
            while self.epoch <= log.epoch {
                closed.push(self.close(now, CloseKind::Cascade));
            }
        }
        closed
    }

    /// A membership update ended the current era: every still-buffered
    /// invocation is returned for the coordinator to bounce back to its client
    /// with a retryable abort (the old order can no longer be completed),
    /// an `era_end` marker log is returned for broadcast, and epoch
    /// numbering restarts in the next era.
    pub(crate) fn on_era_change(&mut self) -> (EpochLog, Vec<PendingInvoke<F, R>>) {
        let bounced = std::mem::take(&mut self.buf);
        let marker = EpochLog {
            shard: self.shard,
            era: self.era,
            epoch: self.epoch,
            entries: Vec::new(),
            era_end: true,
        };
        self.era += 1;
        self.epoch = 0;
        (marker, bounced)
    }

    pub(crate) fn stats(&self) -> &SequencerStats {
        &self.stats
    }
}

/// All destinations of a closed log: every partition, then every peer
/// shard.
pub(crate) fn broadcast_dests(
    partitions: u32,
    shards: u32,
    me: CoordinatorId,
) -> impl Iterator<Item = EpochLogDest> {
    (0..partitions)
        .map(|p| EpochLogDest::Partition(PartitionId(p)))
        .chain(
            (0..shards)
                .filter(move |k| *k != me.0)
                .map(|k| EpochLogDest::Shard(CoordinatorId(k))),
        )
}

/// What a partition should do with a multi-partition round-0 fragment.
#[derive(Debug)]
pub enum Admit<F> {
    /// Deliver these fragments to the scheduler now, in this order (the
    /// arrived fragment and/or previously held fragments its admission
    /// unblocked).
    Deliver(Vec<FragmentTask<F>>),
    /// The fragment is sequenced behind earlier entries whose fragments
    /// have not arrived yet; it is held inside the sequencer.
    Held,
}

/// Per-partition-primary sequencing state: merges the per-shard epoch
/// logs into the global round-robin order and admits multi-partition
/// round-0 fragments in exactly that order.
pub struct PartitionSequencer<F> {
    me: PartitionId,
    shards: u32,
    /// False for a freshly promoted primary until it has observed every
    /// shard's `era_end` marker (the proof it will see a complete era).
    synced: bool,
    era: u32,
    /// Next epoch to merge within the current era.
    epoch: u64,
    /// Buffered logs keyed by (era, epoch, shard).
    logs: FxHashMap<(u32, u64, u32), Vec<(TxnId, Vec<PartitionId>)>>,
    /// Era-end markers: (era, shard) → first epoch that does *not* exist.
    ends: FxHashMap<(u32, u32), u64>,
    /// Merged global admission order, restricted to entries touching us.
    admission: VecDeque<TxnId>,
    /// The admission set, for O(1) membership tests.
    queued: FxHashSet<TxnId>,
    /// Transactions named (for us) in a buffered log whose epoch has not
    /// merged yet — their fragments are held, not passed through.
    pending: FxHashSet<TxnId>,
    /// Fragments that arrived before their turn in the admission order.
    held: FxHashMap<TxnId, FragmentTask<F>>,
    stats: SequencerStats,
}

impl<F> PartitionSequencer<F> {
    /// A primary alive since the start of the run: in sync by definition.
    pub fn new(me: PartitionId, shards: u32) -> Self {
        PartitionSequencer {
            me,
            shards: shards.max(1),
            synced: true,
            era: 0,
            epoch: 0,
            logs: FxHashMap::default(),
            ends: FxHashMap::default(),
            admission: VecDeque::new(),
            queued: FxHashSet::default(),
            pending: FxHashSet::default(),
            held: FxHashMap::default(),
            stats: SequencerStats::default(),
        }
    }

    /// A freshly promoted primary: unsynced until every shard's era ends.
    pub fn promoted(me: PartitionId, shards: u32) -> Self {
        let mut s = Self::new(me, shards);
        s.synced = false;
        s
    }

    /// Does the sequencer gate this fragment at all? Only centrally
    /// coordinated multi-partition round-0 fragments are sequenced:
    /// single-partition work bypasses the layer entirely, later rounds
    /// are ordered by their round-0 admission, and the locking scheme's
    /// client-driven fragments never appear in any shard's log.
    #[inline]
    pub fn gates(task: &FragmentTask<F>) -> bool {
        task.multi_partition
            && task.round == 0
            && matches!(task.coordinator, CoordinatorRef::Central(_))
    }

    /// An epoch log (or era-end marker) arrived from a shard. Returns any
    /// held fragments newly released (admitted by the merge, or orphaned
    /// by an era discard at sync), in admission order.
    pub fn on_log(&mut self, log: EpochLog) -> Vec<FragmentTask<F>> {
        let mut deliver = Vec::new();
        if log.era < self.era || (log.era == self.era && !log.era_end && log.epoch < self.epoch) {
            // Stale: an era (or epoch) we already merged past. Only
            // possible around failovers.
            if !log.entries.is_empty() {
                self.stats.logs_discarded += 1;
            }
            return deliver;
        }
        if log.era_end {
            self.ends.insert((log.era, log.shard.0), log.epoch);
        } else {
            for (txn, participants) in &log.entries {
                if participants.contains(&self.me) {
                    self.pending.insert(*txn);
                }
            }
            self.logs
                .insert((log.era, log.epoch, log.shard.0), log.entries);
        }
        if !self.synced {
            self.try_sync(&mut deliver);
            if !self.synced {
                return deliver;
            }
        }
        self.merge_ready(&mut deliver);
        deliver
    }

    /// A promoted primary syncs once every shard has ended an era on its
    /// link: everything after a shard's `era_end` marker is, by link
    /// FIFO-ness, a complete view of that shard's later eras, so the
    /// merge can join at the era after the latest marker. Buffered logs
    /// from older eras are discarded, and any fragments held for their
    /// entries are released out-of-band (their transactions all touched
    /// this failed partition, so the membership update is already
    /// aborting them at their shards — executing them is moot but safe).
    fn try_sync(&mut self, deliver: &mut Vec<FragmentTask<F>>) {
        let mut start = 0u32;
        for s in 0..self.shards {
            match self
                .ends
                .iter()
                .filter(|((_, shard), _)| *shard == s)
                .map(|((era, _), _)| *era)
                .max()
            {
                Some(e) => start = start.max(e + 1),
                None => return, // this shard's era has not ended yet
            }
        }
        self.synced = true;
        self.era = start;
        self.epoch = 0;
        let me = self.me;
        // Sorted sweep: the release order of orphaned held fragments is
        // part of the driver's event stream (determinism guarantee).
        let mut stale: Vec<(u32, u64, u32)> = self
            .logs
            .keys()
            .filter(|(era, _, _)| *era < start)
            .copied()
            .collect();
        stale.sort_unstable();
        for key in stale {
            let entries = self.logs.remove(&key).expect("key from the map");
            if !entries.is_empty() {
                self.stats.logs_discarded += 1;
            }
            for (txn, participants) in entries {
                if participants.contains(&me) {
                    self.pending.remove(&txn);
                    if let Some(task) = self.held.remove(&txn) {
                        self.stats.passthrough += 1;
                        deliver.push(task);
                    }
                }
            }
        }
        self.ends.retain(|(era, _), _| *era >= start);
    }

    /// Merge every epoch that has a log (or a past-the-end marker) from
    /// all shards, appending entries that touch us to the admission
    /// order; advance eras once exhausted; release newly admissible held
    /// fragments.
    fn merge_ready(&mut self, deliver: &mut Vec<FragmentTask<F>>) {
        loop {
            let ended = |ends: &FxHashMap<(u32, u32), u64>, era: u32, s: u32, e: u64| -> bool {
                ends.get(&(era, s)).is_some_and(|&end| e >= end)
            };
            // Era exhausted once every shard has ended it at or before
            // the merge point: restart numbering in the next era. (Checked
            // *before* the merge step — an all-past-the-end epoch would
            // otherwise merge as empty forever.)
            let exhausted = (0..self.shards).all(|s| ended(&self.ends, self.era, s, self.epoch));
            if exhausted {
                let era = self.era;
                self.ends.retain(|(e, _), _| *e != era);
                self.era += 1;
                self.epoch = 0;
                continue;
            }
            let ready = (0..self.shards).all(|s| {
                self.logs.contains_key(&(self.era, self.epoch, s))
                    || ended(&self.ends, self.era, s, self.epoch)
            });
            if !ready {
                break;
            }
            for s in 0..self.shards {
                if let Some(entries) = self.logs.remove(&(self.era, self.epoch, s)) {
                    for (txn, participants) in entries {
                        if participants.contains(&self.me) {
                            self.pending.remove(&txn);
                            self.admission.push_back(txn);
                            self.queued.insert(txn);
                        }
                    }
                }
            }
            self.epoch += 1;
        }
        self.release_held(deliver);
    }

    /// Pop every admission-order head whose fragment is already here.
    fn release_held(&mut self, deliver: &mut Vec<FragmentTask<F>>) {
        while let Some(front) = self.admission.front() {
            match self.held.remove(front) {
                Some(task) => {
                    self.queued.remove(front);
                    self.admission.pop_front();
                    deliver.push(task);
                }
                None => break,
            }
        }
    }

    /// A centrally coordinated multi-partition round-0 fragment arrived
    /// (the caller has already checked [`PartitionSequencer::gates`]).
    pub fn on_mp_fragment(&mut self, task: FragmentTask<F>) -> Admit<F> {
        if self.admission.front() == Some(&task.txn) {
            self.queued.remove(&task.txn);
            self.admission.pop_front();
            let mut deliver = vec![task];
            self.release_held(&mut deliver);
            return Admit::Deliver(deliver);
        }
        if self.queued.contains(&task.txn) || self.pending.contains(&task.txn) {
            // Sequenced behind earlier entries (or behind an epoch still
            // waiting for a peer shard's log): hold until its turn.
            self.held.insert(task.txn, task);
            return Admit::Held;
        }
        // No log entry at all: an in-doubt redelivery or a straggler
        // whose era this (promoted) primary discarded. Both are safe to
        // run immediately — redeliveries are already globally committed,
        // and stragglers are being aborted at their shard by the same
        // membership update that reset us.
        self.stats.passthrough += 1;
        Admit::Deliver(vec![task])
    }

    /// Transactions admitted to the order but not yet delivered (their
    /// fragments still in flight).
    pub fn backlog(&self) -> usize {
        self.admission.len()
    }

    pub fn stats(&self) -> &SequencerStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{one_round, TestFragment, TestOutput};

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(n), 0)
    }

    fn proc_for(parts: &[u32]) -> Box<dyn Procedure<TestFragment, TestOutput>> {
        one_round(
            parts
                .iter()
                .map(|p| (PartitionId(*p), TestFragment::default()))
                .collect(),
        )
    }

    fn task(n: u32, shard: u32) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: txid(n),
            coordinator: CoordinatorRef::Central(CoordinatorId(shard)),
            client: ClientId(n),
            fragment: TestFragment::default(),
            multi_partition: true,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn log(shard: u32, era: u32, epoch: u64, txns: &[u32]) -> EpochLog {
        EpochLog {
            shard: CoordinatorId(shard),
            era,
            epoch,
            entries: txns
                .iter()
                .map(|n| (txid(*n), vec![PartitionId(0), PartitionId(1)]))
                .collect(),
            era_end: false,
        }
    }

    fn end(shard: u32, era: u32, epoch: u64) -> EpochLog {
        EpochLog {
            shard: CoordinatorId(shard),
            era,
            epoch,
            entries: Vec::new(),
            era_end: true,
        }
    }

    #[test]
    fn shard_closes_on_count_boundary() {
        let mut s = ShardSequencer::new(CoordinatorId(0), 2, 1);
        let push = |s: &mut ShardSequencer<_, _>, n: u32| {
            let parts = proc_for(&[n - 1, n]);
            s.push(txid(n), ClientId(n), parts, false, Nanos(u64::from(n) * 10))
        };
        for n in 1..EPOCH_BATCH {
            assert!(push(&mut s, n).is_none());
        }
        let closed = push(&mut s, EPOCH_BATCH).expect("the last push hits the batch boundary");
        let batch = EPOCH_BATCH as usize;
        assert_eq!(closed.log.epoch, 0);
        assert_eq!(closed.log.entries.len(), batch);
        assert_eq!(closed.log.entries[0].0, txid(1));
        assert_eq!(
            closed.log.entries[1].1,
            vec![PartitionId(1), PartitionId(2)]
        );
        assert_eq!(closed.invokes.len(), batch);
        assert!(s.is_empty());
        assert_eq!(s.stats().epochs_closed, 1);
        assert_eq!(s.stats().batch_sum, batch as u64);
        assert_eq!(s.stats().batch_max, batch as u64);
        assert_eq!(s.stats().seq_hold.count(), batch as u64);
        // Next close is epoch 1.
        let next = s.close(Nanos(10_000), CloseKind::Age);
        assert_eq!(next.log.epoch, 1);
        assert_eq!(s.stats().age_closes, 1);
    }

    #[test]
    fn peer_log_cascades_through_empty_epochs() {
        let mut s = ShardSequencer::new(CoordinatorId(1), 2, 2);
        s.push(txid(7), ClientId(7), proc_for(&[0]), false, Nanos(5));
        // Peer closed epoch 2; we must close 0 (our one entry), 1, 2.
        let closed = s.on_peer_log(&log(0, 0, 2, &[99]), Nanos(9));
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].log.epoch, 0);
        assert_eq!(closed[0].invokes.len(), 1);
        assert!(closed[1].invokes.is_empty() && closed[2].invokes.is_empty());
        assert_eq!(s.stats().forced_closes, 3);
        // Already past epoch 2: the same peer log is a no-op now.
        assert!(s.on_peer_log(&log(0, 0, 2, &[99]), Nanos(10)).is_empty());
        // Logs from another era are ignored.
        assert!(s.on_peer_log(&log(0, 3, 9, &[99]), Nanos(11)).is_empty());
    }

    #[test]
    fn era_change_bounces_buffer_and_restarts_epochs() {
        let mut s: ShardSequencer<TestFragment, TestOutput> =
            ShardSequencer::new(CoordinatorId(0), 2, 1);
        s.close(Nanos(1), CloseKind::Age); // epoch 0 closed
        s.push(txid(3), ClientId(3), proc_for(&[0, 1]), false, Nanos(2));
        let (marker, bounced) = s.on_era_change();
        assert!(marker.era_end);
        assert_eq!(marker.era, 0);
        assert_eq!(marker.epoch, 1, "open epoch at the era end");
        assert!(marker.entries.is_empty());
        assert_eq!(bounced.len(), 1);
        assert_eq!(bounced[0].txn, txid(3));
        // New era starts at epoch 0.
        let c = s.close(Nanos(4), CloseKind::Age);
        assert_eq!((c.log.era, c.log.epoch), (1, 0));
    }

    #[test]
    fn broadcast_dests_cover_partitions_and_peers() {
        let dests: Vec<_> = broadcast_dests(2, 3, CoordinatorId(1)).collect();
        assert_eq!(
            dests,
            vec![
                EpochLogDest::Partition(PartitionId(0)),
                EpochLogDest::Partition(PartitionId(1)),
                EpochLogDest::Shard(CoordinatorId(0)),
                EpochLogDest::Shard(CoordinatorId(2)),
            ]
        );
    }

    #[test]
    fn partition_admits_round_robin_interleave() {
        let mut p = PartitionSequencer::new(PartitionId(0), 2);
        // Epoch 0: shard 0 logs [1, 2], shard 1 logs [3]. Global order:
        // 1, 2, 3 (shard 0 first within the epoch).
        assert!(p.on_log(log(1, 0, 0, &[3])).is_empty());
        assert!(p.on_log(log(0, 0, 0, &[1, 2])).is_empty());
        assert_eq!(p.backlog(), 3);
        // Fragments arrive out of order: 3 first — held.
        assert!(matches!(p.on_mp_fragment(task(3, 1)), Admit::Held));
        // 2 — held (1 is the head).
        assert!(matches!(p.on_mp_fragment(task(2, 0)), Admit::Held));
        // 1 — delivered, and releases 2 then 3.
        match p.on_mp_fragment(task(1, 0)) {
            Admit::Deliver(tasks) => {
                let order: Vec<_> = tasks.iter().map(|t| t.txn).collect();
                assert_eq!(order, vec![txid(1), txid(2), txid(3)]);
            }
            _ => panic!("head fragment must deliver"),
        }
        assert_eq!(p.backlog(), 0);
        assert_eq!(p.stats().passthrough, 0);
    }

    #[test]
    fn fragment_ahead_of_peer_log_is_held_not_passed_through() {
        let mut p = PartitionSequencer::new(PartitionId(0), 2);
        // Shard 0's log and fragment arrive; shard 1's epoch-0 log is
        // still in flight. The fragment must wait (its entry is pending,
        // not merged), otherwise it would execute out of global order.
        assert!(p.on_log(log(0, 0, 0, &[1])).is_empty());
        assert!(matches!(p.on_mp_fragment(task(1, 0)), Admit::Held));
        // Shard 1's (empty) log completes the epoch and releases it.
        let released = p.on_log(log(1, 0, 0, &[]));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].txn, txid(1));
        assert_eq!(p.stats().passthrough, 0);
    }

    #[test]
    fn entries_for_other_partitions_are_skipped() {
        let mut p: PartitionSequencer<TestFragment> = PartitionSequencer::new(PartitionId(5), 1);
        // Entries touch partitions 0 and 1 only.
        assert!(p.on_log(log(0, 0, 0, &[1, 2])).is_empty());
        assert_eq!(p.backlog(), 0);
    }

    #[test]
    fn unknown_transaction_passes_through() {
        // An in-doubt redelivery names a transaction no current log
        // mentions: it must run immediately.
        let mut p = PartitionSequencer::new(PartitionId(0), 1);
        match p.on_mp_fragment(task(42, 0)) {
            Admit::Deliver(t) => assert_eq!(t[0].txn, txid(42)),
            _ => panic!("unknown transactions pass through"),
        }
        assert_eq!(p.stats().passthrough, 1);
    }

    #[test]
    fn era_end_markers_drain_and_advance_eras() {
        let mut p = PartitionSequencer::new(PartitionId(0), 2);
        // Shard 0 closes epoch 0 with an entry, then its era ends at 1;
        // shard 1 was idle: era ends at 0.
        assert!(p.on_log(log(0, 0, 0, &[1])).is_empty());
        assert!(p.on_log(end(1, 0, 0)).is_empty());
        // Epoch 0 merges: shard 1 is past-the-end → empty.
        assert_eq!(p.backlog(), 1);
        assert!(p.on_log(end(0, 0, 1)).is_empty());
        // Era 0 exhausted; era 1 epoch 0 from both shards merges next.
        assert!(p.on_log(log(0, 1, 0, &[2])).is_empty());
        assert!(p.on_log(log(1, 1, 0, &[3])).is_empty());
        assert_eq!(p.backlog(), 3);
        match p.on_mp_fragment(task(1, 0)) {
            Admit::Deliver(t) => assert_eq!(t.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn promoted_primary_syncs_at_first_complete_era() {
        let mut p = PartitionSequencer::promoted(PartitionId(0), 2);
        // Old-era straggler log: buffered, then discarded at sync.
        assert!(p.on_log(log(0, 0, 7, &[9])).is_empty());
        // Its fragment is held while the log is pending...
        assert!(matches!(p.on_mp_fragment(task(9, 0)), Admit::Held));
        // ...and released out-of-band when sync discards its era.
        assert!(p.on_log(end(0, 0, 8)).is_empty());
        let released = p.on_log(end(1, 0, 3));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].txn, txid(9));
        assert_eq!(p.stats().logs_discarded, 1);
        assert_eq!(p.stats().passthrough, 1);
        // Era 1 merges normally.
        p.on_log(log(0, 1, 0, &[11]));
        p.on_log(log(1, 1, 0, &[]));
        assert_eq!(p.backlog(), 1);
        match p.on_mp_fragment(task(11, 0)) {
            Admit::Deliver(t) => assert_eq!(t[0].txn, txid(11)),
            _ => panic!("post-sync traffic must sequence normally"),
        }
    }

    #[test]
    fn unsynced_primary_buffers_new_era_logs() {
        let mut p: PartitionSequencer<TestFragment> =
            PartitionSequencer::promoted(PartitionId(0), 1);
        // New-era log arrives before the old era's marker: buffered.
        assert!(p.on_log(log(0, 1, 0, &[5])).is_empty());
        assert_eq!(p.backlog(), 0, "unsynced: nothing admitted");
        // Marker arrives: sync at era 1 and merge the buffered log.
        assert!(p.on_log(end(0, 0, 4)).is_empty());
        assert_eq!(p.backlog(), 1);
    }

    #[test]
    fn gates_only_central_mp_round_zero() {
        let mut t = task(1, 0);
        assert!(PartitionSequencer::gates(&t));
        t.round = 1;
        assert!(!PartitionSequencer::gates(&t));
        t.round = 0;
        t.multi_partition = false;
        assert!(!PartitionSequencer::gates(&t));
        t.multi_partition = true;
        t.coordinator = CoordinatorRef::Client(ClientId(3));
        assert!(!PartitionSequencer::gates(&t), "locking MP is not gated");
    }

    #[test]
    fn merge_is_deterministic_under_arrival_permutations() {
        // Same logs in two arrival orders → same admission order.
        let logs = [
            log(0, 0, 0, &[1]),
            log(1, 0, 0, &[2, 3]),
            log(0, 0, 1, &[4]),
            log(1, 0, 1, &[]),
        ];
        let admitted = |order: &[usize]| {
            let mut p = PartitionSequencer::new(PartitionId(0), 2);
            for &i in order {
                p.on_log(logs[i].clone());
            }
            let mut seen = Vec::new();
            for n in [1u32, 2, 3, 4] {
                if let Admit::Deliver(ts) = p.on_mp_fragment(task(n, 0)) {
                    seen.extend(ts.iter().map(|t| t.txn));
                }
            }
            seen
        };
        let a = admitted(&[0, 1, 2, 3]);
        let b = admitted(&[3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(a, vec![txid(1), txid(2), txid(3), txid(4)]);
    }
}
