//! Stored-procedure plans for multi-partition transactions, and the
//! workload-generator interface.
//!
//! A transaction is "deterministic code interleaved \[with\] database
//! operations" (paper §3.1), divided into fragments. We represent the
//! coordinator-side logic as a [`Procedure`]: a *pure* function from the
//! settled responses of earlier rounds to the next round's fragments (or
//! the final result). Purity matters: when speculative inputs are
//! discarded after a cascading abort, the coordinator simply re-evaluates
//! the procedure on fresh responses — no hidden state to rewind.

use crate::engine::ExecutionEngine;
use hcc_common::{ClientId, PartitionId, TxnId};

/// Settled outputs of one completed round, keyed by partition.
#[derive(Debug, Clone)]
pub struct RoundOutputs<R> {
    pub by_partition: Vec<(PartitionId, R)>,
}

impl<R> RoundOutputs<R> {
    pub fn get(&self, p: PartitionId) -> Option<&R> {
        self.by_partition
            .iter()
            .find(|(pp, _)| *pp == p)
            .map(|(_, r)| r)
    }
}

/// What the procedure wants next.
#[derive(Debug)]
pub enum Step<F, R> {
    /// Dispatch these fragments; `is_final` means this is the last round,
    /// so the 2PC prepare is piggybacked on it (paper §3.3).
    Round {
        fragments: Vec<(PartitionId, F)>,
        is_final: bool,
    },
    /// All rounds completed: the final result to return to the client.
    Finish(R),
}

/// Coordinator-side logic of a multi-partition stored procedure.
pub trait Procedure<F, R>: std::fmt::Debug + Send {
    /// Given the settled outputs of rounds `0..n`, produce round `n`'s
    /// fragments or the final result. Called with an empty slice for round
    /// 0. Must be deterministic.
    fn step(&self, prior: &[RoundOutputs<R>]) -> Step<F, R>;

    /// Clone into a new box (retried transactions re-submit the same
    /// procedure under a fresh transaction id).
    fn clone_box(&self) -> Box<dyn Procedure<F, R>>;

    /// The partitions this procedure touches in round 0 (used for
    /// accounting and by tests).
    ///
    fn participants(&self) -> Vec<PartitionId> {
        match self.step(&[]) {
            Step::Round { fragments, .. } => fragments.iter().map(|(p, _)| *p).collect(),
            Step::Finish(_) => Vec::new(),
        }
    }
}

/// One client request, as produced by a workload generator.
pub enum Request<F, R> {
    /// Runs entirely at one partition; sent directly to it.
    SinglePartition {
        partition: PartitionId,
        fragment: F,
        /// Whether the procedure may abort after writing (forces an undo
        /// buffer even on the non-speculative path, paper §3.2).
        can_abort: bool,
    },
    /// Coordinated across partitions.
    MultiPartition {
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
    },
}

/// A copy to re-submit on a retry: the fragment's clone (a fragment never
/// changes once generated, so workloads make it a reference count, as
/// `MicroFragment` shares its op list) or the procedure's
/// [`clone_box`](Procedure::clone_box).
impl<F: Clone, R> Clone for Request<F, R> {
    fn clone(&self) -> Self {
        match self {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => Request::SinglePartition {
                partition: *partition,
                fragment: fragment.clone(),
                can_abort: *can_abort,
            },
            Request::MultiPartition {
                procedure,
                can_abort,
            } => Request::MultiPartition {
                procedure: procedure.clone_box(),
                can_abort: *can_abort,
            },
        }
    }
}

impl<F, R> std::fmt::Debug for Request<F, R>
where
    F: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => f
                .debug_struct("SinglePartition")
                .field("partition", partition)
                .field("fragment", fragment)
                .field("can_abort", can_abort)
                .finish(),
            Request::MultiPartition { procedure, .. } => f
                .debug_struct("MultiPartition")
                .field("procedure", procedure)
                .finish(),
        }
    }
}

/// A workload: builds per-partition engines and generates the request
/// stream for each closed-loop client. Implemented by `hcc-workloads`.
///
/// A generator whose state is per client splits into one share per client
/// ([`for_client`](Self::for_client)), and each client actor then draws
/// its requests from its own share with no lock. One that keeps state
/// across clients (a global counter, a record of every client's outcomes)
/// returns `None` there, and the runtime calls it under one shared lock.
pub trait RequestGenerator {
    type Engine: ExecutionEngine;

    /// Next request for `client`. Clients are closed-loop: this is called
    /// exactly once per completed transaction (paper §5: "Each client
    /// issues one request, waits for the response, then issues another").
    fn next_request(
        &mut self,
        client: ClientId,
    ) -> Request<
        <Self::Engine as ExecutionEngine>::Fragment,
        <Self::Engine as ExecutionEngine>::Output,
    >;

    /// Observe a completed transaction (for generators that validate
    /// results or adapt). Default: ignore.
    fn on_result(&mut self, _client: ClientId, _txn: TxnId, _committed: bool) {}

    /// Take `client`'s share of this generator, or `None` if it does not
    /// split (the default). The contract, for a share that is returned:
    ///
    /// * **exact stream** — the share's `next_request(client)` yields
    ///   exactly the requests, in the same order, that `self` would have
    ///   yielded for `client` from here on, however the other clients'
    ///   calls interleave;
    /// * **nothing shared** — the share holds only `client`'s state and
    ///   touches nothing another client's share does, so no two clients
    ///   contend for a lock or a cache line;
    /// * **the share is the client's from now on** — `next_request` and
    ///   `on_result` for `client` go to the share alone, never to `self`,
    ///   which is left holding nothing the share depends on.
    ///
    /// The runtime asks once per client, before the first request.
    fn for_client(&mut self, _client: ClientId) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}
