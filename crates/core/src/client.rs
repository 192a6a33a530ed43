//! Client-side request lifecycle, shared by the simulator and the live
//! runtime.
//!
//! Clients are closed-loop (paper §5): issue one request, wait for its
//! result, issue the next. A transaction aborted for scheduling reasons
//! (deadlock victim, lock timeout) is transparently retried under a fresh
//! transaction id — a `TxnId` identifies one *invocation attempt*
//! end-to-end, which keeps partition- and coordinator-side bookkeeping
//! (execution attempts, decided-transaction history) unambiguous. User
//! aborts are final outcomes and are not retried.

use hcc_common::stats::LatencyHistogram;
use hcc_common::{AbortReason, ClientId, Nanos, RetryConfig, SplitMix64, TxnId, TxnResult};

/// First infrastructure-abort backoff: a failover takes about one network
/// round trip plus a promotion, so retries start in that neighbourhood.
pub const BACKOFF_BASE: Nanos = Nanos(50_000);

/// Upper bound on any single backoff delay, near the failure-detection
/// scale.
pub const BACKOFF_CAP: Nanos = Nanos(5_000_000);

hcc_common::counters! {
    /// Per-client outcome statistics; the drivers merge them across clients.
    #[derive(Debug, Clone, Default)]
    pub struct ClientStats {
        /// Transactions that committed.
        count committed: u64,
        /// Transactions that ended in a (final) user abort.
        count user_aborted: u64,
        /// Scheduling aborts that triggered a transparent retry.
        count retries: u64,
        /// The subset of [`retries`](ClientStats::retries) that waited out a
        /// nonzero backoff delay (infrastructure aborts under
        /// [`RetryConfig`]).
        count backoff_retries: u64,
        /// Requests abandoned after [`RetryConfig::max_attempts`] consecutive
        /// retryable aborts.
        count retry_exhausted: u64,
        /// End-to-end latency of committed transactions (submission of the
        /// first attempt → result), recorded by
        /// [`ClientCore::on_result_at`].
        part latency: LatencyHistogram,
    }
}

/// What the client should do after a result arrives.
#[derive(Debug, PartialEq, Eq)]
pub enum NextAction {
    /// The request reached a final outcome: issue a new request.
    NewRequest,
    /// The request must be retried (same work, fresh transaction id) after
    /// waiting `after` — zero for scheduling aborts (deadlock victim, lock
    /// timeout, failed speculation), a capped-exponential backoff with
    /// deterministic jitter for infrastructure aborts (partition failover,
    /// cross-coordinator expiry, stalled log).
    Retry { after: Nanos },
}

/// Transaction-id assignment and outcome bookkeeping for one client.
#[derive(Debug)]
pub struct ClientCore {
    pub id: ClientId,
    seq: u32,
    /// Consecutive retryable aborts of the *current* request (reset on any
    /// final outcome) — the exponent of the backoff schedule.
    attempts: u32,
    retry: RetryConfig,
    /// Jitter stream, seeded from the client id alone so a run stays a
    /// pure function of (config, workload, seed).
    jitter: SplitMix64,
    pub stats: ClientStats,
}

impl ClientCore {
    pub fn new(id: ClientId) -> Self {
        Self::with_retry(id, RetryConfig::default())
    }

    pub fn with_retry(id: ClientId, retry: RetryConfig) -> Self {
        ClientCore {
            id,
            seq: 0,
            attempts: 0,
            retry,
            jitter: SplitMix64::new(0xBACC_0FF0 ^ u64::from(id.0) << 17),
            stats: ClientStats::default(),
        }
    }

    /// Allocate the transaction id for the next invocation attempt.
    pub fn next_txn_id(&mut self) -> TxnId {
        let txn = TxnId::new(self.id, self.seq);
        self.seq = self.seq.wrapping_add(1);
        txn
    }

    /// Consecutive retryable aborts of the in-flight request so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Equal-jitter capped exponential backoff: attempt `n` draws uniformly
    /// from `[d/2, d]` where `d = min(BACKOFF_CAP, BACKOFF_BASE * 2^(n-1))`.
    /// The half-floor keeps retries spaced out; the jitter decorrelates
    /// clients that failed together (a failover aborts every in-flight
    /// transaction of a partition at once).
    fn backoff_delay(&mut self) -> Nanos {
        let exp = self.attempts.saturating_sub(1).min(32);
        let raw = BACKOFF_BASE.0.saturating_mul(1u64 << exp);
        let d = raw.min(BACKOFF_CAP.0);
        let half = d / 2;
        Nanos(half + self.jitter.next_u64() % (d - half + 1))
    }

    /// Record a final result; decide whether to retry.
    pub fn on_result<R>(&mut self, result: &TxnResult<R>) -> NextAction {
        match result {
            TxnResult::Committed(_) => {
                self.stats.committed += 1;
                self.attempts = 0;
                NextAction::NewRequest
            }
            TxnResult::Aborted(reason) if reason.is_retryable() => {
                self.attempts += 1;
                if self.attempts > self.retry.max_attempts {
                    // Give up: surface the abort to the workload as final.
                    self.stats.retry_exhausted += 1;
                    self.stats.user_aborted += 1;
                    self.attempts = 0;
                    return NextAction::NewRequest;
                }
                self.stats.retries += 1;
                let after = match reason {
                    AbortReason::PartitionFailed
                    | AbortReason::CrossCoordinator
                    | AbortReason::LogStalled => self.backoff_delay(),
                    _ => Nanos::ZERO,
                };
                if after > Nanos::ZERO {
                    self.stats.backoff_retries += 1;
                }
                NextAction::Retry { after }
            }
            TxnResult::Aborted(_) => {
                self.stats.user_aborted += 1;
                self.attempts = 0;
                NextAction::NewRequest
            }
        }
    }

    /// As [`on_result`](ClientCore::on_result), but with clock readings so
    /// committed-transaction latency lands in [`ClientStats::latency`].
    /// `submitted` is when the request's *first* attempt was issued (a
    /// retried transaction keeps accruing from its original submission —
    /// the user-visible latency), `now` when the result arrived. When
    /// `record` is false the outcome is counted but the latency sample is
    /// dropped (drivers pass the measurement-window predicate here).
    pub fn on_result_at<R>(
        &mut self,
        result: &TxnResult<R>,
        submitted: Nanos,
        now: Nanos,
        record: bool,
    ) -> NextAction {
        if record && result.is_committed() {
            self.stats.latency.record(now.saturating_sub(submitted));
        }
        self.on_result(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::Request;
    use crate::testkit::{one_round, TestFragment};
    use hcc_common::AbortReason;
    use hcc_common::PartitionId;

    #[test]
    fn txn_ids_are_sequential_per_client() {
        let mut c = ClientCore::new(ClientId(3));
        let a = c.next_txn_id();
        let b = c.next_txn_id();
        assert_eq!(a.client(), ClientId(3));
        assert_eq!(a.seq() + 1, b.seq());
    }

    #[test]
    fn commit_counts_and_continues() {
        let mut c = ClientCore::new(ClientId(0));
        let action = c.on_result(&TxnResult::Committed(42u32));
        assert_eq!(action, NextAction::NewRequest);
        assert_eq!(c.stats.committed, 1);
    }

    #[test]
    fn deadlock_and_timeout_retry_immediately() {
        let mut c = ClientCore::new(ClientId(0));
        assert_eq!(
            c.on_result(&TxnResult::<u32>::Aborted(AbortReason::DeadlockVictim)),
            NextAction::Retry { after: Nanos::ZERO }
        );
        assert_eq!(
            c.on_result(&TxnResult::<u32>::Aborted(AbortReason::LockTimeout)),
            NextAction::Retry { after: Nanos::ZERO }
        );
        assert_eq!(c.stats.retries, 2);
        assert_eq!(c.stats.backoff_retries, 0);
        assert_eq!(c.stats.committed, 0);
    }

    #[test]
    fn infrastructure_aborts_back_off_exponentially() {
        let mut c = ClientCore::new(ClientId(5));
        let mut delays = Vec::new();
        for _ in 0..8 {
            match c.on_result(&TxnResult::<u32>::Aborted(AbortReason::PartitionFailed)) {
                NextAction::Retry { after } => delays.push(after),
                other => panic!("expected retry, got {other:?}"),
            }
        }
        // Attempt n draws from [d/2, d] with d = min(cap, base * 2^(n-1)).
        let (base, cap) = (BACKOFF_BASE.0, BACKOFF_CAP.0);
        for (i, after) in delays.iter().enumerate() {
            let d = (base << i).min(cap);
            assert!(
                (d / 2..=d).contains(&after.0),
                "attempt {} delay {} outside [{}, {}]",
                i + 1,
                after.0,
                d / 2,
                d
            );
        }
        // Doubling up to attempt 7 (3.2 ms); attempt 8 would double to
        // 6.4 ms, so it is the first to draw from the cap's window.
        assert!(base << 6 < cap && base << 7 > cap);
        assert_eq!(c.stats.backoff_retries, 8);
        // A commit resets the schedule.
        c.on_result(&TxnResult::Committed(1u32));
        match c.on_result(&TxnResult::<u32>::Aborted(AbortReason::CrossCoordinator)) {
            NextAction::Retry { after } => {
                assert!((base / 2..=base).contains(&after.0), "reset to base")
            }
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_per_client() {
        let mut a = ClientCore::new(ClientId(9));
        let mut b = ClientCore::new(ClientId(9));
        for _ in 0..4 {
            assert_eq!(
                a.on_result(&TxnResult::<u32>::Aborted(AbortReason::LogStalled)),
                b.on_result(&TxnResult::<u32>::Aborted(AbortReason::LogStalled)),
            );
        }
    }

    #[test]
    fn retries_exhaust_after_max_attempts() {
        let retry = RetryConfig::default().with_max_attempts(3);
        let mut c = ClientCore::with_retry(ClientId(0), retry);
        for _ in 0..3 {
            assert!(matches!(
                c.on_result(&TxnResult::<u32>::Aborted(AbortReason::PartitionFailed)),
                NextAction::Retry { .. }
            ));
        }
        assert_eq!(
            c.on_result(&TxnResult::<u32>::Aborted(AbortReason::PartitionFailed)),
            NextAction::NewRequest,
            "fourth consecutive abort gives up"
        );
        assert_eq!(c.stats.retry_exhausted, 1);
        assert_eq!(c.stats.retries, 3);
        // The schedule reset with the abandonment.
        assert!(matches!(
            c.on_result(&TxnResult::<u32>::Aborted(AbortReason::PartitionFailed)),
            NextAction::Retry { .. }
        ));
        assert_eq!(c.attempts(), 1);
    }

    #[test]
    fn on_result_at_records_commit_latency_only() {
        let mut c = ClientCore::new(ClientId(0));
        c.on_result_at(
            &TxnResult::Committed(1u32),
            Nanos(1_000),
            Nanos(26_000),
            true,
        );
        c.on_result_at(
            &TxnResult::<u32>::Aborted(AbortReason::User),
            Nanos(0),
            Nanos(90_000),
            true,
        );
        // Outside the measurement window: counted, not sampled.
        c.on_result_at(&TxnResult::Committed(2u32), Nanos(0), Nanos(50_000), false);
        assert_eq!(c.stats.committed, 2);
        assert_eq!(c.stats.user_aborted, 1);
        assert_eq!(c.stats.latency.count(), 1);
        assert_eq!(c.stats.latency.mean(), Nanos(25_000));
    }

    #[test]
    fn stats_merge_folds_latency() {
        let mut a = ClientStats::default();
        let mut b = ClientStats::default();
        a.committed = 2;
        a.latency.record(Nanos::from_micros(10));
        b.committed = 3;
        b.retries = 1;
        b.latency.record(Nanos::from_micros(30));
        a.merge(&b);
        assert_eq!(a.committed, 5);
        assert_eq!(a.retries, 1);
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency.mean(), Nanos::from_micros(20));
    }

    #[test]
    fn user_abort_is_final() {
        let mut c = ClientCore::new(ClientId(0));
        assert_eq!(
            c.on_result(&TxnResult::<u32>::Aborted(AbortReason::User)),
            NextAction::NewRequest
        );
        assert_eq!(c.stats.user_aborted, 1);
    }

    #[test]
    fn request_clone_roundtrip() {
        let req: Request<TestFragment, Vec<(u64, i64)>> = Request::SinglePartition {
            partition: PartitionId(1),
            fragment: TestFragment::add(5, 1),
            can_abort: true,
        };
        match req.clone() {
            Request::SinglePartition {
                partition,
                can_abort,
                ..
            } => {
                assert_eq!(partition, PartitionId(1));
                assert!(can_abort);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn request_clone_clones_procedure() {
        let req: Request<TestFragment, Vec<(u64, i64)>> = Request::MultiPartition {
            procedure: one_round(vec![(PartitionId(0), TestFragment::add(1, 1))]),
            can_abort: false,
        };
        match req.clone() {
            Request::MultiPartition { procedure, .. } => {
                assert_eq!(procedure.participants(), vec![PartitionId(0)]);
            }
            _ => panic!("wrong variant"),
        }
    }
}
