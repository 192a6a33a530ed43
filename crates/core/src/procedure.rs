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
//!
//! The paper's *simple* multi-partition transaction (§4.2.2: one round,
//! every fragment known up front, which is every distributed TPC-C
//! transaction) is one type, [`OneRound`]; only a transaction whose later
//! rounds depend on earlier outputs implements [`Procedure`] by hand.

use crate::engine::ExecutionEngine;
use hcc_common::{ClientId, PartitionId, TxnId};
use std::sync::Arc;

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

    /// The partitions this procedure touches in round 0 (what a sequenced
    /// shard orders the transaction by).
    fn participants(&self) -> Vec<PartitionId> {
        match self.step(&[]) {
            Step::Round { fragments, .. } => fragments.iter().map(|(p, _)| *p).collect(),
            Step::Finish(_) => Vec::new(),
        }
    }
}

/// The paper's *simple* multi-partition transaction (§4.2.2): one round
/// whose fragments are all known when the request is generated. Round 0
/// dispatches `fragments` in order with the 2PC prepare piggybacked
/// (`is_final`), and `finish` builds the result from that round's outputs,
/// which arrive in the same order.
///
/// The fragments are shared: a retry copy ([`Procedure::clone_box`]) is a
/// box and a reference count, not a copy of any fragment.
#[derive(Debug, Clone)]
pub struct OneRound<F, R> {
    /// One fragment per participant, in dispatch order.
    pub fragments: Arc<[(PartitionId, F)]>,
    /// The transaction's result from round 0's outputs: for instance
    /// [`first_output`], [`last_output`], or a workload's concatenation.
    pub finish: fn(&RoundOutputs<R>) -> R,
}

/// A [`OneRound::finish`] rule: the first-dispatched participant's output.
pub fn first_output<R: Clone>(round: &RoundOutputs<R>) -> R {
    round.by_partition[0].1.clone()
}

/// A [`OneRound::finish`] rule: the last-dispatched participant's output.
pub fn last_output<R: Clone>(round: &RoundOutputs<R>) -> R {
    let (_, output) = round
        .by_partition
        .last()
        .expect("a round has a participant");
    output.clone()
}

impl<F, R> Procedure<F, R> for OneRound<F, R>
where
    F: Clone + std::fmt::Debug + Send + Sync + 'static,
    R: Clone + std::fmt::Debug + 'static,
{
    fn step(&self, prior: &[RoundOutputs<R>]) -> Step<F, R> {
        match prior {
            [] => Step::Round {
                fragments: self.fragments.to_vec(),
                is_final: true,
            },
            [round, ..] => Step::Finish((self.finish)(round)),
        }
    }

    fn clone_box(&self) -> Box<dyn Procedure<F, R>> {
        Box::new(self.clone())
    }

    fn participants(&self) -> Vec<PartitionId> {
        self.fragments.iter().map(|(p, _)| *p).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{TestFragment, TestOutput};

    #[test]
    fn one_round_dispatches_its_fragments_and_finishes_by_its_rule() {
        let (p0, p1) = (PartitionId(3), PartitionId(1));
        let proc: OneRound<TestFragment, TestOutput> = OneRound {
            fragments: Arc::from([
                (p0, TestFragment::add(1, 1)),
                (p1, TestFragment::read(&[2])),
            ]),
            finish: last_output,
        };
        // Round 0 is every fragment, in order, with the prepare on it.
        let Step::Round {
            fragments,
            is_final,
        } = proc.step(&[])
        else {
            panic!("expected round 0");
        };
        assert!(is_final);
        let ops: Vec<_> = fragments.into_iter().map(|(p, f)| (p, f.ops)).collect();
        assert_eq!(
            ops,
            vec![
                (p0, TestFragment::add(1, 1).ops),
                (p1, TestFragment::read(&[2]).ops)
            ]
        );
        assert_eq!(proc.participants(), vec![p0, p1]);
        // The result comes from round 0's outputs, by the rule.
        let round = RoundOutputs {
            by_partition: vec![(p0, vec![(1, 5)]), (p1, vec![(2, 17)])],
        };
        assert_eq!(first_output(&round), vec![(1, 5)]);
        let Step::Finish(out) = proc.step(&[round]) else {
            panic!("expected the result");
        };
        assert_eq!(out, vec![(2, 17)]);
        // A retry copy shares the fragments rather than copying them.
        assert_eq!(Arc::strong_count(&proc.fragments), 1);
        let copy = proc.clone_box();
        assert_eq!(Arc::strong_count(&proc.fragments), 2);
        assert_eq!(copy.participants(), vec![p0, p1]);
    }
}
