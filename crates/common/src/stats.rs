//! Lightweight statistics helpers used by the drivers and the benchmark
//! harness: online mean/variance, fixed-bucket latency histograms, and the
//! counter block every scheduler exports.

use crate::time::Nanos;

/// Welford online mean / variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95% confidence interval of the mean, using the
    /// normal approximation (the paper reports intervals "within a few
    /// percent"; we do the same check on our own measurements).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev() / (self.n as f64).sqrt()
    }
}

/// The tail-latency digest every driver reports: count, mean, and the
/// three quantiles the bench tables print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean: Nanos,
    pub p50: Nanos,
    pub p99: Nanos,
    pub p999: Nanos,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {} p99 {} p999 {}", self.p50, self.p99, self.p999)
    }
}

/// Log-scaled latency histogram: buckets of 1 µs up to 1 ms, then 10 µs up
/// to 10 ms, then 100 µs. Good enough resolution for transaction latencies
/// in the 10 µs – 10 ms range this system produces.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    fine: Vec<u64>,   // 1 µs buckets, [0, 1ms)
    mid: Vec<u64>,    // 10 µs buckets, [1ms, 10ms)
    coarse: Vec<u64>, // 100 µs buckets, [10ms, 100ms)
    overflow: u64,
    count: u64,
    sum_ns: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            fine: vec![0; 1000],
            mid: vec![0; 900],
            coarse: vec![0; 900],
            overflow: 0,
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    pub fn record(&mut self, latency: Nanos) {
        let us = latency.0 / 1_000;
        if us < 1_000 {
            self.fine[us as usize] += 1;
        } else if us < 10_000 {
            self.mid[((us - 1_000) / 10) as usize] += 1;
        } else if us < 100_000 {
            self.coarse[((us - 10_000) / 100) as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum_ns += latency.0 as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate quantile (returns the lower edge of the containing
    /// bucket). `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.fine.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos::from_micros(i as u64);
            }
        }
        for (i, &c) in self.mid.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos::from_micros(1_000 + i as u64 * 10);
            }
        }
        for (i, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos::from_micros(10_000 + i as u64 * 100);
            }
        }
        Nanos::from_micros(100_000)
    }

    /// The p50/p99/p999 digest reported by every driver.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        for (a, b) in self.mid.iter_mut().zip(&other.mid) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

/// Counters exported by every partition scheduler; the drivers aggregate
/// them across partitions. These back the §5.6-style breakdowns (deadlocks,
/// lock-manager time) and the Table 2 parameter measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Fragments executed, including speculative and repeated executions.
    pub fragments_executed: u64,
    /// Transactions committed at this partition.
    pub committed: u64,
    /// Multi-partition transactions committed at this partition (subset of
    /// `committed`); `committed_mp / committed` is the observed
    /// mp-fraction the adaptive controller feeds the §6 model.
    pub committed_mp: u64,
    /// Transactions aborted at this partition (any reason, counted once).
    pub aborted: u64,
    /// Fragment executions performed speculatively.
    pub speculative_executions: u64,
    /// Fragment executions that were later squashed and re-run.
    pub squashed_executions: u64,
    /// Transactions executed on the no-undo, no-lock fast path.
    pub fast_path: u64,
    /// Lock acquisitions that were granted immediately.
    pub locks_granted_immediately: u64,
    /// Lock acquisitions that had to wait.
    pub locks_waited: u64,
    /// Local deadlocks resolved by cycle detection.
    pub local_deadlocks: u64,
    /// Lock waits resolved by timeout (presumed distributed deadlock).
    pub lock_timeouts: u64,
    /// Virtual CPU charged to lock management (acquire/release/detect).
    pub lock_manager_ns: u64,
    /// Virtual CPU charged to fragment execution.
    pub execution_ns: u64,
    /// Virtual CPU charged to rollbacks.
    pub rollback_ns: u64,
    /// Decisions received for transactions this scheduler never saw.
    /// Nonzero only around a failover (a promoted primary receives
    /// decisions for transactions that died with its predecessor); in a
    /// healthy run this must stay 0.
    pub stray_decisions: u64,
    /// Distinct multi-partition transactions held at the head of the
    /// queue behind an uncommitted transaction from a *different*
    /// coordinator shard (§4.2.2's same-coordinator-chain rule falling
    /// back to blocking; residual cross-partition deadlocks are broken by
    /// coordinator timeout expiry). Counted once per stall, not per
    /// arrival, the same way under blocking, speculation and OCC. Always 0
    /// with a single coordinator or under sequencing; the measured price
    /// of sharding at high multi-partition fractions.
    pub cross_coord_waits: u64,
    /// Distinct multi-partition transactions that stopped speculation
    /// because their fragment voted abort at this partition: whatever the
    /// decision, work speculated past them would be squashed (§4.2's
    /// assume-all-conflict rule). Counted once per transaction, as
    /// `cross_coord_waits` is. Always 0 without aborts, under blocking
    /// (nothing speculates) and under OCC (its survivors are not waste).
    pub doomed_waits: u64,
}

impl SchedulerCounters {
    pub fn merge(&mut self, o: &SchedulerCounters) {
        self.fragments_executed += o.fragments_executed;
        self.committed += o.committed;
        self.committed_mp += o.committed_mp;
        self.aborted += o.aborted;
        self.speculative_executions += o.speculative_executions;
        self.squashed_executions += o.squashed_executions;
        self.fast_path += o.fast_path;
        self.locks_granted_immediately += o.locks_granted_immediately;
        self.locks_waited += o.locks_waited;
        self.local_deadlocks += o.local_deadlocks;
        self.lock_timeouts += o.lock_timeouts;
        self.lock_manager_ns += o.lock_manager_ns;
        self.execution_ns += o.execution_ns;
        self.rollback_ns += o.rollback_ns;
        self.stray_decisions += o.stray_decisions;
        self.cross_coord_waits += o.cross_coord_waits;
        self.doomed_waits += o.doomed_waits;
    }

    /// Snapshot-delta semantics for rate computation (ISSUE 10): the
    /// counters accumulated since `prev` was captured. Every field
    /// saturates at zero, so a counter *reset* across a scheme swap (the
    /// new scheduler starts from zero) yields a zero delta for that
    /// window instead of a huge underflowed — or negative, if signed —
    /// rate. Consumers computing rates must use this, never lifetime
    /// totals (which average away phase shifts).
    pub fn delta_since(&self, prev: &SchedulerCounters) -> SchedulerCounters {
        SchedulerCounters {
            fragments_executed: self
                .fragments_executed
                .saturating_sub(prev.fragments_executed),
            committed: self.committed.saturating_sub(prev.committed),
            committed_mp: self.committed_mp.saturating_sub(prev.committed_mp),
            aborted: self.aborted.saturating_sub(prev.aborted),
            speculative_executions: self
                .speculative_executions
                .saturating_sub(prev.speculative_executions),
            squashed_executions: self
                .squashed_executions
                .saturating_sub(prev.squashed_executions),
            fast_path: self.fast_path.saturating_sub(prev.fast_path),
            locks_granted_immediately: self
                .locks_granted_immediately
                .saturating_sub(prev.locks_granted_immediately),
            locks_waited: self.locks_waited.saturating_sub(prev.locks_waited),
            local_deadlocks: self.local_deadlocks.saturating_sub(prev.local_deadlocks),
            lock_timeouts: self.lock_timeouts.saturating_sub(prev.lock_timeouts),
            lock_manager_ns: self.lock_manager_ns.saturating_sub(prev.lock_manager_ns),
            execution_ns: self.execution_ns.saturating_sub(prev.execution_ns),
            rollback_ns: self.rollback_ns.saturating_sub(prev.rollback_ns),
            stray_decisions: self.stray_decisions.saturating_sub(prev.stray_decisions),
            cross_coord_waits: self
                .cross_coord_waits
                .saturating_sub(prev.cross_coord_waits),
            doomed_waits: self.doomed_waits.saturating_sub(prev.doomed_waits),
        }
    }

    /// Transaction outcomes (commits + aborts) in this block — the window
    /// clock of the adaptive controller.
    pub fn outcomes(&self) -> u64 {
        self.committed + self.aborted
    }
}

/// One live scheme switch performed by the adaptive controller
/// (ISSUE 10), in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Partition that switched.
    pub partition: u32,
    /// Transition epoch: dense per partition from 1, bumped at every
    /// swap. Failover parity is asserted on (epoch, scheme) pairs.
    pub epoch: u32,
    /// Scheme the partition switched *to*.
    pub scheme: crate::config::Scheme,
    /// Virtual/wall clock of the swap (when the quiesce completed).
    pub at_ns: u64,
}

/// Statistics for the adaptive scheme-selection controller (ISSUE 10),
/// merged across partitions by the drivers. All zero / empty when
/// `SystemConfig::adaptive` is off — the golden table
/// (`crates/bench/goldens.tsv`), whose first rows predate this subsystem,
/// pins that the paper's configuration pays nothing for it.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Live scheme swaps performed.
    pub switches: u64,
    /// Sliding windows closed and scored against the model.
    pub windows_evaluated: u64,
    /// Fragments held during quiesces and replayed after the swap.
    pub held_fragments: u64,
    /// Quiesce stall: time from the switch decision to the partition
    /// draining idle (speculation chains resolved, 2PC settled) so the
    /// swap could happen.
    pub quiesce_stall: LatencyHistogram,
    /// Virtual/wall time spent resident in each scheme, indexed by
    /// `Scheme as usize` (blocking, speculation, locking, occ).
    pub residency_ns: [u64; 4],
    /// Every switch, in order (partitions interleaved by time).
    pub switch_log: Vec<SwitchRecord>,
}

impl AdaptiveStats {
    pub fn merge(&mut self, o: &AdaptiveStats) {
        self.switches += o.switches;
        self.windows_evaluated += o.windows_evaluated;
        self.held_fragments += o.held_fragments;
        self.quiesce_stall.merge(&o.quiesce_stall);
        for (a, b) in self.residency_ns.iter_mut().zip(&o.residency_ns) {
            *a += b;
        }
        self.switch_log.extend_from_slice(&o.switch_log);
        self.switch_log
            .sort_by_key(|r| (r.at_ns, r.partition, r.epoch));
    }

    /// Fraction of total resident time spent in each scheme (zeros when
    /// nothing was recorded).
    pub fn residency_fractions(&self) -> [f64; 4] {
        let total: u64 = self.residency_ns.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, r) in out.iter_mut().zip(&self.residency_ns) {
            *o = *r as f64 / total as f64;
        }
        out
    }
}

/// Counters for the replication subsystem (`hcc-core`'s `ReplicaCore`),
/// aggregated across all replicas of a run by the drivers. These back the
/// PR 3 availability/overhead sweep and the "replay failures must be 0 in
/// healthy runs" invariant every replication test asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationCounters {
    /// Commit records shipped by primaries.
    pub records_shipped: u64,
    /// Commit records applied by replicas.
    pub records_applied: u64,
    /// Duplicate records skipped by replicas (idempotent re-delivery).
    pub records_skipped: u64,
    /// Replay errors: a fragment failed to re-execute on a replica, or a
    /// sequence gap was detected. **Must be 0 in a healthy run** — each one
    /// is a replica that silently diverged from its primary.
    pub replay_failures: u64,
    /// Backup→primary promotions (failovers) performed.
    pub promotions: u64,
    /// §3.3 recoveries completed (failed node rejoined from a snapshot).
    pub recoveries: u64,
    /// State snapshots served by live replicas to recovering nodes.
    pub snapshots_served: u64,
    /// Transactions bounced with `PartitionFailed` by a crashed/recovering
    /// node (clients transparently retry them against the new primary).
    pub failover_bounces: u64,
    /// Wall/virtual clock when the primary crashed (0 = no failure).
    pub failed_at_ns: u64,
    /// Wall/virtual clock when the failed node finished rejoining
    /// (snapshot installed; 0 = no recovery).
    pub recovered_at_ns: u64,
}

impl ReplicationCounters {
    pub fn merge(&mut self, o: &ReplicationCounters) {
        self.records_shipped += o.records_shipped;
        self.records_applied += o.records_applied;
        self.records_skipped += o.records_skipped;
        self.replay_failures += o.replay_failures;
        self.promotions += o.promotions;
        self.recoveries += o.recoveries;
        self.snapshots_served += o.snapshots_served;
        self.failover_bounces += o.failover_bounces;
        // At most one failure is injected per run, so max() folds the
        // one replica that recorded each timestamp.
        self.failed_at_ns = self.failed_at_ns.max(o.failed_at_ns);
        self.recovered_at_ns = self.recovered_at_ns.max(o.recovered_at_ns);
    }

    /// Crash → rejoined duration, when a failure was injected and the node
    /// came back.
    pub fn time_to_recover(&self) -> Option<Nanos> {
        (self.failed_at_ns > 0 && self.recovered_at_ns >= self.failed_at_ns)
            .then(|| Nanos(self.recovered_at_ns - self.failed_at_ns))
    }
}

/// Counters for the epoch-batched cross-shard sequencing layer (ISSUE 8),
/// merged across coordinator shards and partitions by the drivers. All
/// zero when `SystemConfig::sequencing` is off — the golden table
/// (`crates/bench/goldens.tsv`), whose first rows predate this subsystem,
/// pins that the paper's configuration pays nothing for it.
#[derive(Debug, Clone, Default)]
pub struct SequencerStats {
    /// Epochs closed across all coordinator shards (including the empty
    /// epochs a shard emits to catch up with its peers).
    pub epochs_closed: u64,
    /// Sum of per-epoch batch sizes (entries in closed epochs);
    /// `batch_sum / epochs_closed` is the mean batch.
    pub batch_sum: u64,
    /// Largest single epoch batch observed.
    pub batch_max: u64,
    /// Epochs closed because a *peer shard's* log for the same (or a
    /// later) epoch arrived — the cascade that keeps the round-robin
    /// merge advancing past idle shards.
    pub forced_closes: u64,
    /// Epochs closed by the age boundary
    /// (`hcc_core::sequencer::EPOCH_MAX_AGE`) rather than the count
    /// boundary.
    pub age_closes: u64,
    /// Epoch logs a promoted partition primary discarded because they
    /// predate its membership era (their unacked transactions are
    /// re-sequenced by the shards in the new era).
    pub logs_discarded: u64,
    /// Multi-partition round-0 fragments a partition admitted without an
    /// epoch-log entry (failover redelivery, era-discarded stragglers) —
    /// nonzero only around failures.
    pub passthrough: u64,
    /// `CrossCoordinator` aborts observed while sequencing was on. Under
    /// sequencing these should be impossible (the merged epoch order
    /// leaves nothing for expiry to break); the satellite assert fires
    /// on this counter.
    pub cross_coord_aborts: u64,
    /// Time multi-partition invocations spent held in a shard's open
    /// epoch before dispatch (submission → epoch close).
    pub seq_hold: LatencyHistogram,
}

impl SequencerStats {
    pub fn merge(&mut self, o: &SequencerStats) {
        self.epochs_closed += o.epochs_closed;
        self.batch_sum += o.batch_sum;
        self.batch_max = self.batch_max.max(o.batch_max);
        self.forced_closes += o.forced_closes;
        self.age_closes += o.age_closes;
        self.logs_discarded += o.logs_discarded;
        self.passthrough += o.passthrough;
        self.cross_coord_aborts += o.cross_coord_aborts;
        self.seq_hold.merge(&o.seq_hold);
    }

    /// Mean entries per closed epoch (0 when no epoch closed).
    pub fn mean_batch(&self) -> f64 {
        if self.epochs_closed == 0 {
            0.0
        } else {
            self.batch_sum as f64 / self.epochs_closed as f64
        }
    }
}

/// Counters for the durable command log (ISSUE 6), aggregated across all
/// partitions of a run by the drivers. Zero everywhere when durability is
/// off — the golden table (`crates/bench/goldens.tsv`), whose first rows
/// predate this subsystem, pins that the paper's configuration pays
/// nothing for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// Commit records appended to the durable log.
    pub records_appended: u64,
    /// Group-commit syncs performed.
    pub syncs: u64,
    /// Committed results whose release waited on a group-commit sync
    /// (the rest found their batch already durable).
    pub results_held: u64,
    /// Batches aborted by the stalled-log guard; their transactions were
    /// bounced to clients with the retryable `LogStalled`.
    pub stalled_aborts: u64,
    /// Records discarded at recovery because the tail write was torn
    /// (partial final record detected by length/checksum framing).
    pub torn_tails_discarded: u64,
}

impl DurabilityCounters {
    pub fn merge(&mut self, o: &DurabilityCounters) {
        self.records_appended += o.records_appended;
        self.syncs += o.syncs;
        self.results_held += o.results_held;
        self.stalled_aborts += o.stalled_aborts;
        self.torn_tails_discarded += o.torn_tails_discarded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_and_variance() {
        let mut w = Welford::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_ci_shrinks_with_samples() {
        let mut small = Welford::default();
        let mut large = Welford::default();
        for i in 0..10 {
            small.push((i % 3) as f64);
        }
        for i in 0..1000 {
            large.push((i % 3) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        for us in 1..=100u64 {
            h.record(Nanos::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Nanos::from_micros(50));
        assert_eq!(h.quantile(0.99), Nanos::from_micros(99));
        // Mean of 1..=100 µs is 50.5 µs.
        assert_eq!(h.mean(), Nanos(50_500));
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = LatencyHistogram::default();
        h.record(Nanos::from_micros(999));
        h.record(Nanos::from_micros(1_000));
        h.record(Nanos::from_micros(9_999));
        h.record(Nanos::from_micros(10_000));
        h.record(Nanos::from_micros(99_999));
        h.record(Nanos::from_micros(1_000_000)); // overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn histogram_summary_quantiles() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(Nanos::from_micros(us));
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, Nanos::from_micros(500));
        assert_eq!(s.p99, Nanos::from_micros(990));
        assert_eq!(s.p999, Nanos::from_micros(999));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(Nanos::from_micros(10));
        b.record(Nanos::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Nanos::from_micros(15));
    }

    #[test]
    fn delta_since_is_the_window_increment() {
        let prev = SchedulerCounters {
            committed: 100,
            committed_mp: 10,
            aborted: 5,
            execution_ns: 1_000_000,
            ..Default::default()
        };
        let now = SchedulerCounters {
            committed: 150,
            committed_mp: 25,
            aborted: 9,
            execution_ns: 1_700_000,
            ..Default::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.committed, 50);
        assert_eq!(d.committed_mp, 15);
        assert_eq!(d.aborted, 4);
        assert_eq!(d.execution_ns, 700_000);
        assert_eq!(d.outcomes(), 54);
    }

    #[test]
    fn delta_since_saturates_across_counter_reset() {
        // A scheme swap replaces the scheduler; the fresh one counts from
        // zero. A consumer whose `prev` snapshot predates the swap must
        // see a zero delta — never an underflowed (u64::MAX-ish) or
        // inflated rate.
        let before_swap = SchedulerCounters {
            committed: 1_000,
            committed_mp: 200,
            aborted: 50,
            fragments_executed: 5_000,
            execution_ns: 9_999_999,
            ..Default::default()
        };
        let after_reset = SchedulerCounters {
            committed: 3,
            committed_mp: 1,
            aborted: 0,
            fragments_executed: 4,
            execution_ns: 1_000,
            ..Default::default()
        };
        let d = after_reset.delta_since(&before_swap);
        assert_eq!(d.committed, 0);
        assert_eq!(d.committed_mp, 0);
        assert_eq!(d.aborted, 0);
        assert_eq!(d.fragments_executed, 0);
        assert_eq!(d.execution_ns, 0);
        // The resulting rates are well-defined (0/0 guarded by callers),
        // not astronomically inflated.
        assert!(d.outcomes() < u64::MAX / 2);
    }

    #[test]
    fn adaptive_stats_merge_orders_switch_log() {
        let mut a = AdaptiveStats {
            switches: 1,
            residency_ns: [10, 0, 0, 0],
            switch_log: vec![SwitchRecord {
                partition: 0,
                epoch: 1,
                scheme: crate::config::Scheme::Locking,
                at_ns: 500,
            }],
            ..Default::default()
        };
        let b = AdaptiveStats {
            switches: 1,
            residency_ns: [0, 20, 0, 0],
            switch_log: vec![SwitchRecord {
                partition: 1,
                epoch: 1,
                scheme: crate::config::Scheme::Blocking,
                at_ns: 200,
            }],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.switches, 2);
        assert_eq!(a.residency_ns, [10, 20, 0, 0]);
        assert_eq!(a.switch_log[0].at_ns, 200);
        let f = a.residency_fractions();
        assert!((f[0] - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn counters_merge() {
        let mut a = SchedulerCounters {
            committed: 2,
            aborted: 1,
            ..Default::default()
        };
        let b = SchedulerCounters {
            committed: 3,
            lock_timeouts: 4,
            doomed_waits: 6,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.committed, 5);
        assert_eq!(a.aborted, 1);
        assert_eq!(a.lock_timeouts, 4);
        assert_eq!(a.doomed_waits, 6);
    }
}
