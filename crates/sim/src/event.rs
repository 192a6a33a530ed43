//! Event queue plumbing.

use hcc_common::{
    ClientId, CoordinatorId, CoordinatorRef, Decision, FragmentResponse, FragmentTask, Nanos,
    PartitionId, Scheme, TxnId,
};
use hcc_core::coordinator::PeerNote;
use hcc_core::{EpochLog, ExecutionEngine, Procedure};
use std::cmp::Ordering;

/// A message delivered to a partition. The decision's second field is the
/// coordinator (central shard or client driver) expecting an ack for a
/// processed commit (in-doubt tracking / durable release; `None`
/// otherwise).
pub enum PartIn<F> {
    Fragment(FragmentTask<F>),
    Decision(Decision, Option<CoordinatorRef>),
    /// A closed sequencing epoch log from a coordinator shard (sequencing
    /// runs only).
    EpochLog(EpochLog),
}

/// A message delivered to one central coordinator shard.
pub enum CoordIn<E: ExecutionEngine> {
    Invoke {
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<E::Fragment, E::Output>>,
        can_abort: bool,
    },
    Response(FragmentResponse<E::Output>),
    /// Periodic maintenance: expire transactions stalled on a failed
    /// participant.
    Tick,
    /// The control plane reported a failover: the partition now answers to
    /// a promoted backup under this epoch. Abort in-flight transactions
    /// touching it; re-deliver unacknowledged commits.
    RoutingUpdate {
        partition: PartitionId,
        epoch: u32,
    },
    /// A partition processed a commit decision (in-doubt tracking).
    DecisionAck {
        txn: TxnId,
        partition: PartitionId,
    },
    /// A peer shard closed a sequencing epoch (cascade-close input).
    EpochLog(EpochLog),
    /// A peer shard decided one of its transactions (cross-shard
    /// dependency settling under sequencing).
    PeerNote(PeerNote),
}

/// A message delivered to a client.
pub enum ClientIn<R> {
    /// Final transaction result (from a partition, the central
    /// coordinator, or the client's own transaction driver).
    Result {
        txn: TxnId,
        result: hcc_common::TxnResult<R>,
    },
    /// A fragment response for a client-coordinated transaction (locking).
    FragResponse(FragmentResponse<R>),
}

/// Everything that can happen in the simulation.
pub enum Ev<E: ExecutionEngine> {
    ToPartition {
        p: PartitionId,
        msg: PartIn<E::Fragment>,
    },
    ToCoordinator {
        k: CoordinatorId,
        msg: CoordIn<E>,
    },
    ToClient {
        c: ClientId,
        msg: ClientIn<E::Output>,
    },
    /// Scheduler maintenance (lock-wait timeout scan).
    Tick {
        p: PartitionId,
    },
    /// A previously issued log sync for partition `p` completes
    /// (`DurabilityConfig::sync_latency` after it was issued).
    SyncDone {
        p: PartitionId,
    },
    /// Stall-guard check: if partition `p`'s oldest unsynced append is
    /// still not durable past the sync deadline, the in-flight batch is
    /// aborted with `LogStalled`.
    StallCheck {
        p: PartitionId,
    },
    /// Sequencing age-boundary check for shard `k`: close its open epoch
    /// if the oldest buffered invocation has waited `max_delay`. One-shot:
    /// armed when a shard's buffer becomes non-empty, disarmed (by the
    /// per-shard `flush_at` guard) when the epoch closes earlier for
    /// another reason.
    EpochClose {
        k: CoordinatorId,
    },
    /// Observational marker (adaptive runs): partition `p` completed a
    /// live scheme swap at this point of the event stream. Handling it is
    /// a no-op — its purpose is to make switch points part of the totally
    /// ordered, deterministic event sequence, so two runs that switch at
    /// different times cannot silently interleave the same way.
    // The fields exist to be *carried* (they shape heap identity and
    // debug output), not to be read by the dispatch no-op.
    #[allow(dead_code)]
    SchemeSwitch {
        p: PartitionId,
        epoch: u32,
        scheme: Scheme,
    },
    /// Failover injection: kill p's primary and promote its replica.
    Kill {
        p: PartitionId,
    },
    /// The killed node rejoins from a snapshot of the live replica (§3.3).
    Rejoin {
        p: PartitionId,
    },
    /// Several deliveries sharing one arrival time, dispatched in order.
    ///
    /// One handler invocation often emits a burst of messages that all
    /// arrive together (fragment fan-out, decision fan-out); carrying the
    /// burst as one heap entry costs one push/pop instead of N. Ordering
    /// is unchanged: members were pushed with consecutive sequence
    /// numbers, so nothing could have sorted between them anyway. Never
    /// nested.
    Batch(Vec<Ev<E>>),
}

/// Heap entry ordered by (time, sequence); the sequence number makes the
/// run a total order, hence deterministic.
pub struct HeapItem<E: ExecutionEngine> {
    pub at: Nanos,
    pub seq: u64,
    pub ev: Ev<E>,
}

impl<E: ExecutionEngine> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E: ExecutionEngine> Eq for HeapItem<E> {}

impl<E: ExecutionEngine> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: ExecutionEngine> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
