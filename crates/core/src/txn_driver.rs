//! Client-side two-phase commit for the locking scheme.
//!
//! Under locking, "clients send multi-partition transactions directly to
//! the partitions, without going through the central coordinator. This is
//! more efficient when there are no lock conflicts, as it reduces network
//! latency and eliminates an extra process from the system" (§4.3).
//!
//! [`TxnDriver`] is a thin wrapper around [`Coordinator`] configured as a
//! client-coordinator: the round-driving and 2PC logic are identical, but
//! fragments are stamped `CoordinatorRef::Client(_)` so partitions respond
//! to the client, and there is no speculative-dependency machinery to
//! exercise (the locking scheduler never emits dependencies).

use crate::coordinator::{CoordOut, Coordinator};
use crate::procedure::Procedure;
use hcc_common::{ClientId, CostModel, FragmentResponse, TxnId};

/// Drives the multi-partition transactions of one client under the locking
/// scheme.
pub struct TxnDriver<F, R> {
    inner: Coordinator<F, R>,
    client: ClientId,
}

impl<F: Clone + std::fmt::Debug, R: Clone + std::fmt::Debug> TxnDriver<F, R> {
    pub fn new(costs: CostModel, client: ClientId) -> Self {
        TxnDriver {
            inner: Coordinator::client_driver(costs, client),
            client,
        }
    }

    /// Start a multi-partition transaction; emits round-0 fragments.
    pub fn begin(
        &mut self,
        txn: TxnId,
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.inner
            .on_invoke(txn, self.client, procedure, can_abort, out);
    }

    /// Feed a partition's response; may emit more fragments, decisions,
    /// and finally a `CoordOut::ClientResult` destined for this client
    /// itself — mail from the client's driver to the client, which never
    /// crosses the network.
    pub fn on_response(&mut self, resp: FragmentResponse<R>, out: &mut Vec<CoordOut<F, R>>) {
        self.inner.on_response(resp, out);
    }

    /// Enable durable result release: the driver parks a committed result
    /// until every participant acknowledges its commit decision (which
    /// partitions send only once the commit record is durably logged).
    /// The decisions then carry `CoordinatorRef::Client(_)` ack addresses,
    /// so partitions route the acks back to this client.
    pub fn set_hold_results(&mut self, on: bool) {
        self.inner.set_hold_results(on);
    }

    /// A participant acknowledged a commit decision (`logged`: its record
    /// is in its durable log); the final ack releases the parked result
    /// into `out`.
    pub fn on_decision_ack(
        &mut self,
        txn: TxnId,
        partition: hcc_common::PartitionId,
        logged: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.inner.on_decision_ack(txn, partition, logged, out);
    }

    /// Number of undecided transactions (0 or 1 for closed-loop clients).
    pub fn pending(&self) -> usize {
        self.inner.pending()
    }

    /// Virtual CPU consumed since last drained.
    pub fn take_cpu(&mut self) -> hcc_common::Nanos {
        self.inner.take_cpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{one_round, TestFragment, TestOutput};
    use hcc_common::{AbortReason, CoordinatorRef, PartitionId, TxnResult, Vote};

    /// Split driver outputs into network messages and the final result (if
    /// the transaction just decided).
    fn take_result(
        out: &mut Vec<CoordOut<TestFragment, TestOutput>>,
    ) -> Option<(TxnId, TxnResult<TestOutput>)> {
        let pos = out
            .iter()
            .position(|o| matches!(o, CoordOut::ClientResult { .. }))?;
        match out.remove(pos) {
            CoordOut::ClientResult { txn, result, .. } => Some((txn, result)),
            _ => unreachable!(),
        }
    }

    fn driver() -> TxnDriver<TestFragment, TestOutput> {
        TxnDriver::new(CostModel::default(), ClientId(5))
    }

    fn proc2() -> Box<dyn Procedure<TestFragment, TestOutput>> {
        one_round(vec![
            (PartitionId(0), TestFragment::add(1, 1)),
            (PartitionId(1), TestFragment::add(2, 1)),
        ])
    }

    fn resp(txn: TxnId, p: u32, vote: Vote) -> FragmentResponse<TestOutput> {
        FragmentResponse {
            txn,
            partition: PartitionId(p),
            round: 0,
            attempt: 0,
            payload: match vote {
                Vote::Commit => Ok(vec![]),
                Vote::Abort(r) => Err(r),
            },
            vote: Some(vote),
            depends_on: None,
        }
    }

    #[test]
    fn fragments_are_client_coordinated() {
        let mut d = driver();
        let mut out = Vec::new();
        let txn = TxnId::new(ClientId(5), 0);
        d.begin(txn, proc2(), false, &mut out);
        assert_eq!(out.len(), 2);
        for o in &out {
            match o {
                CoordOut::Fragment(_, t) => {
                    assert_eq!(t.coordinator, CoordinatorRef::Client(ClientId(5)));
                    assert!(t.last_fragment);
                }
                _ => panic!("expected fragments"),
            }
        }
    }

    #[test]
    fn commit_after_votes_and_result_extracted() {
        let mut d = driver();
        let mut out = Vec::new();
        let txn = TxnId::new(ClientId(5), 0);
        d.begin(txn, proc2(), false, &mut out);
        out.clear();
        d.on_response(resp(txn, 0, Vote::Commit), &mut out);
        assert!(take_result(&mut out).is_none());
        d.on_response(resp(txn, 1, Vote::Commit), &mut out);
        let (id, result) = take_result(&mut out).expect("decided");
        assert_eq!(id, txn);
        assert!(result.is_committed());
        // Two commit decisions remain in the outbox.
        let commits = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, dd, _) if dd.commit))
            .count();
        assert_eq!(commits, 2);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn held_result_releases_on_final_decision_ack() {
        let mut d = driver();
        d.set_hold_results(true);
        let mut out = Vec::new();
        let txn = TxnId::new(ClientId(5), 0);
        d.begin(txn, proc2(), false, &mut out);
        out.clear();
        d.on_response(resp(txn, 0, Vote::Commit), &mut out);
        d.on_response(resp(txn, 1, Vote::Commit), &mut out);
        // Decided, but the result is parked until both participants ack.
        assert!(take_result(&mut out).is_none());
        // Decisions carry a client ack address.
        let acked = out
            .iter()
            .filter(
                |o| matches!(o, CoordOut::Decision(_, dd, Some(CoordinatorRef::Client(c))) if dd.commit && *c == ClientId(5)),
            )
            .count();
        assert_eq!(acked, 2);
        out.clear();
        d.on_decision_ack(txn, PartitionId(0), true, &mut out);
        assert!(take_result(&mut out).is_none());
        d.on_decision_ack(txn, PartitionId(1), true, &mut out);
        let (id, result) = take_result(&mut out).expect("released");
        assert_eq!(id, txn);
        assert!(result.is_committed());
    }

    #[test]
    fn an_unlogged_ack_releases_the_held_result_as_log_stalled() {
        let mut d = driver();
        d.set_hold_results(true);
        let mut out = Vec::new();
        let txn = TxnId::new(ClientId(5), 0);
        d.begin(txn, proc2(), false, &mut out);
        d.on_response(resp(txn, 0, Vote::Commit), &mut out);
        d.on_response(resp(txn, 1, Vote::Commit), &mut out);
        out.clear();
        // P0 committed but could not append the record: the chain is not
        // wedged, and the client must not read `Committed`.
        d.on_decision_ack(txn, PartitionId(0), false, &mut out);
        assert!(take_result(&mut out).is_none());
        d.on_decision_ack(txn, PartitionId(1), true, &mut out);
        let (_, result) = take_result(&mut out).expect("released");
        assert_eq!(result, TxnResult::Aborted(AbortReason::LogStalled));
    }

    #[test]
    fn deadlock_vote_aborts_transaction() {
        let mut d = driver();
        let mut out = Vec::new();
        let txn = TxnId::new(ClientId(5), 0);
        d.begin(txn, proc2(), false, &mut out);
        out.clear();
        d.on_response(resp(txn, 0, Vote::Commit), &mut out);
        d.on_response(
            resp(txn, 1, Vote::Abort(AbortReason::LockTimeout)),
            &mut out,
        );
        let (_, result) = take_result(&mut out).expect("decided");
        assert_eq!(result, TxnResult::Aborted(AbortReason::LockTimeout));
        let aborts = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, dd, _) if !dd.commit))
            .count();
        assert_eq!(aborts, 2);
    }
}
