//! Group-commit batching policy for the durable command log (paper §2.3:
//! "transactions are committed in batches ... the log is synced once per
//! batch, amortizing the disk latency over the group").
//!
//! The policy is a pure state machine shared by all three drivers, and it
//! is self-clocked: a batch is what was committed while the driver was
//! busy, closed when the driver has nothing more to hand the partition.
//! Each driver asks [`GroupCommit::on_drained`] at its natural boundary —
//! the reactor when a worker's step batch ends, the thread-per-actor
//! backend when the replica's channel runs empty, the simulator when the
//! device it models would answer — and syncs iff records are pending
//! and no sync is in flight. So the batch grows with load and there is
//! nothing to tune: a lone transaction is synced at once, and with a
//! blocking device the batch is whatever arrived during the previous
//! sync. The driver owns the [`DurableLog`](hcc_storage::DurableLog)
//! itself and performs the sync; what the primary owes for records in the
//! batch (results, 2PC decision acks) waits in its
//! [`CommitGate`](crate::replica::CommitGate) until the sync completes
//! (clients only see a commit once it is durable).
//!
//! The **stall guard** is the robustness half: a log whose sync does not
//! complete within [`DurabilityConfig::sync_deadline`] must not wedge every
//! client parked behind it. A failed sync stays in flight — `on_drained`
//! does not retry a dead device — and when [`GroupCommit::stalled`] fires,
//! the driver aborts the in-flight batch with the retryable
//! [`AbortReason::LogStalled`](hcc_common::AbortReason::LogStalled) instead
//! of holding results forever. The records may still be on disk (append
//! succeeded, sync never confirmed), so a stalled-batch abort is the one
//! place the system chooses at-least-once over exactly-once: a retried
//! transaction re-executes under a fresh transaction id.

use hcc_common::stats::DurabilityCounters;
use hcc_common::{DurabilityConfig, Nanos};

/// What the driver should do with the log right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Keep accumulating; nothing to do.
    None,
    /// Sync the log now: the batch is closed.
    SyncNow,
}

/// Group-commit batching state for one partition's command log.
#[derive(Debug)]
pub struct GroupCommit {
    cfg: DurabilityConfig,
    /// Records appended since the last completed sync.
    pending: u64,
    /// When the oldest unsynced record was appended.
    first_pending_at: Option<Nanos>,
    /// A sync was issued and has neither completed nor been given up on.
    sync_in_flight: bool,
    pub counters: DurabilityCounters,
}

impl GroupCommit {
    pub fn new(cfg: DurabilityConfig) -> Self {
        GroupCommit {
            cfg,
            pending: 0,
            first_pending_at: None,
            sync_in_flight: false,
            counters: DurabilityCounters::default(),
        }
    }

    /// Records appended but not yet durable.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// A commit record was appended at `now`.
    pub fn on_append(&mut self, now: Nanos) {
        self.pending += 1;
        self.counters.records_appended += 1;
        if self.first_pending_at.is_none() {
            self.first_pending_at = Some(now);
        }
    }

    /// The driver has nothing more to hand this partition right now: close
    /// the batch. Returns [`FlushDecision::SyncNow`] iff records are pending
    /// and no sync is in flight, and counts the sync the driver must now
    /// perform as in flight: it ends with [`on_synced`](Self::on_synced),
    /// or — a failed sync is not retried — when the stall guard gives up on
    /// its batch.
    pub fn on_drained(&mut self) -> FlushDecision {
        if self.pending > 0 && !self.sync_in_flight {
            self.sync_in_flight = true;
            FlushDecision::SyncNow
        } else {
            FlushDecision::None
        }
    }

    /// The sync completed: the batch is durable.
    pub fn on_synced(&mut self) {
        self.counters.syncs += 1;
        self.pending = 0;
        self.first_pending_at = None;
        self.sync_in_flight = false;
    }

    /// Absolute deadline after which the in-flight batch counts as stalled
    /// (`None` when nothing is pending). Measured from the *oldest unsynced
    /// append*, not the sync issue time, so a sync that is never issued
    /// (driver wedged) also trips it.
    pub fn stall_deadline(&self) -> Option<Nanos> {
        Some(self.first_pending_at? + self.cfg.sync_deadline)
    }

    /// Has the in-flight batch stalled past the sync deadline?
    pub fn stalled(&self, now: Nanos) -> bool {
        matches!(self.stall_deadline(), Some(d) if now >= d)
    }

    /// The driver gave up on the batch: `aborted` parked results were
    /// bounced with `LogStalled`. The batch slate is wiped so the log can
    /// accept new appends (the underlying records stay in the file — they
    /// are simply never acknowledged).
    pub fn on_stall_abort(&mut self, aborted: u64) {
        self.counters.stalled_aborts += aborted;
        self.pending = 0;
        self.first_pending_at = None;
        self.sync_in_flight = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DurabilityConfig {
        DurabilityConfig::default().with_sync_deadline(Nanos::from_millis(10))
    }

    #[test]
    fn drained_with_nothing_pending_does_nothing() {
        let mut gc = GroupCommit::new(cfg());
        assert_eq!(gc.on_drained(), FlushDecision::None);
        gc.on_append(Nanos::from_micros(1));
        assert_eq!(gc.on_drained(), FlushDecision::SyncNow);
        gc.on_synced();
        assert_eq!(gc.on_drained(), FlushDecision::None, "batch is durable");
    }

    #[test]
    fn drained_closes_whatever_accumulated() {
        let mut gc = GroupCommit::new(cfg());
        let t = Nanos::from_micros(1);
        for _ in 0..3 {
            gc.on_append(t);
        }
        assert_eq!(gc.pending(), 3);
        assert_eq!(gc.on_drained(), FlushDecision::SyncNow);
        // Appends while a sync is in flight never double-issue.
        gc.on_append(t);
        assert_eq!(gc.on_drained(), FlushDecision::None, "sync in flight");
        gc.on_synced();
        assert_eq!(gc.counters.syncs, 1);
        assert_eq!(gc.counters.records_appended, 4);
    }

    #[test]
    fn failed_sync_stays_in_flight_until_the_stall_guard_aborts() {
        let mut gc = GroupCommit::new(cfg());
        let t0 = Nanos::from_micros(7);
        gc.on_append(t0);
        assert_eq!(gc.on_drained(), FlushDecision::SyncNow);
        // The sync fails: the driver never calls `on_synced`.
        gc.on_append(t0 + Nanos::from_micros(1));
        assert_eq!(gc.on_drained(), FlushDecision::None, "no retry loop");
        assert!(gc.stalled(t0 + Nanos::from_millis(10)));
        gc.on_stall_abort(2);
        assert_eq!(gc.on_drained(), FlushDecision::None, "slate wiped");
        // The next batch is tried afresh.
        gc.on_append(t0 + Nanos::from_millis(11));
        assert_eq!(gc.on_drained(), FlushDecision::SyncNow);
    }

    #[test]
    fn stall_guard_measures_from_first_append() {
        let mut gc = GroupCommit::new(cfg());
        let t0 = Nanos::from_micros(7);
        gc.on_append(t0);
        assert!(!gc.stalled(t0 + Nanos::from_millis(9)));
        assert!(gc.stalled(t0 + Nanos::from_millis(10)));
        gc.on_stall_abort(1);
        assert_eq!(gc.counters.stalled_aborts, 1);
        assert!(!gc.stalled(t0 + Nanos::from_millis(20)), "slate wiped");
        assert_eq!(gc.pending(), 0);
    }
}
