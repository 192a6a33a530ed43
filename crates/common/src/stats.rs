//! Lightweight statistics helpers used by the drivers and the benchmark
//! harness: online mean/variance, fixed-bucket latency histograms, and the
//! counter blocks every actor exports.
//!
//! A counter block is declared once, with [`counters!`](crate::counters):
//! each field has a doc and a kind, and the block's `merge`, `visit` and
//! `delta_since` follow from the kinds.
//! - `count`: summed;
//! - `max`: the larger value wins (a batch maximum, a timestamp recorded
//!   once per run);
//! - `ns`: CPU time, summed, and not visited (the golden table leaves out
//!   what times the host);
//! - `part`: a value that merges itself through [`Merge`] (a histogram, a
//!   per-scheme array, the time-sorted switch log, a nested block).

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
}

/// A value that folds in another of its kind: what a `part` field of a
/// [`counters!`](crate::counters) block is.
pub trait Merge {
    fn merge(&mut self, other: &Self);
}

impl Merge for LatencyHistogram {
    fn merge(&mut self, other: &Self) {
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

/// A per-scheme array of totals, summed element by element.
impl<const N: usize> Merge for [u64; N] {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// The switch log stays in time order (partitions interleaved by time).
impl Merge for Vec<SwitchRecord> {
    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
        self.sort_by_key(|r| (r.at_ns, r.partition, r.epoch));
    }
}

/// Declare a counter block: a struct whose every field is `pub` and has a
/// kind, `count`, `max`, `ns` or `part` (module docs). The block gets
/// - `merge`, which folds another block in field by field, and [`Merge`];
/// - `visit(|name, value|)`, over its `count` and `max` fields in
///   declaration order (the golden table's columns);
/// - a saturating `delta_since`, when it has no `part` field.
///
/// [`SchedulerCounters`](crate::stats::SchedulerCounters) is one; a new
/// counter is one more line in its declaration.
#[macro_export]
macro_rules! counters {
    (@merge count, $a:expr, $b:expr) => { $a += $b };
    (@merge ns, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge part, $a:expr, $b:expr) => { $crate::stats::Merge::merge(&mut $a, &$b) };
    (@visit count, $f:ident, $field:ident, $v:expr) => { $f(stringify!($field), $v) };
    (@visit max, $f:ident, $field:ident, $v:expr) => { $f(stringify!($field), $v) };
    (@visit ns, $($skip:tt)*) => {};
    (@visit part, $($skip:tt)*) => {};
    // `delta_since` only for a block with no `part` field: walk the kinds.
    (@delta [part $($kind:ident)*] $($skip:tt)*) => {};
    (@delta [$k:ident $($kind:ident)*] $($block:tt)*) => {
        $crate::counters!(@delta [$($kind)*] $($block)*);
    };
    (@delta [] $name:ident { $($field:ident)* }) => {
        impl $name {
            /// Snapshot-delta semantics for rate computation: the counters
            /// accumulated since `prev` was captured. Every field
            /// saturates at zero, so a counter *reset* across a scheme
            /// swap (the new scheduler starts from zero) yields a zero
            /// delta for that window instead of a huge underflowed — or
            /// negative, if signed — rate. Consumers computing rates must
            /// use this, never lifetime totals (which average away phase
            /// shifts).
            pub fn delta_since(&self, prev: &$name) -> $name {
                $name { $($field: self.$field.saturating_sub(prev.$field),)* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// Fold `o` in, each field by its kind.
            pub fn merge(&mut self, o: &$name) {
                $($crate::counters!(@merge $kind, self.$field, o.$field);)*
            }

            /// Each `count` and `max` field's name and value, in
            /// declaration order.
            #[allow(unused_mut, unused_variables)]
            pub fn visit(&self, mut f: impl FnMut(&'static str, u64)) {
                $($crate::counters!(@visit $kind, f, $field, self.$field);)*
            }
        }

        impl $crate::stats::Merge for $name {
            fn merge(&mut self, o: &$name) {
                $name::merge(self, o)
            }
        }

        $crate::counters!(@delta [$($kind)*] $name { $($field)* });
    };
}

counters! {
    /// Counters exported by every partition scheduler; the drivers aggregate
    /// them across partitions. These back the §5.6-style breakdowns (deadlocks,
    /// lock-manager time) and the Table 2 parameter measurement.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SchedulerCounters {
        /// Fragments executed, including speculative and repeated executions.
        count fragments_executed: u64,
        /// Transactions committed at this partition.
        count committed: u64,
        /// Multi-partition transactions committed at this partition (subset of
        /// `committed`); `committed_mp / committed` is the observed
        /// mp-fraction the adaptive controller feeds the §6 model.
        count committed_mp: u64,
        /// Transactions aborted at this partition (any reason, counted once).
        count aborted: u64,
        /// Fragment executions performed speculatively.
        count speculative_executions: u64,
        /// Fragment executions that were later squashed and re-run.
        count squashed_executions: u64,
        /// Transactions executed on the no-undo, no-lock fast path.
        count fast_path: u64,
        /// Lock acquisitions that were granted immediately.
        count locks_granted_immediately: u64,
        /// Lock acquisitions that had to wait.
        count locks_waited: u64,
        /// Local deadlocks resolved by cycle detection.
        count local_deadlocks: u64,
        /// Lock waits resolved by timeout (presumed distributed deadlock).
        count lock_timeouts: u64,
        /// Virtual CPU charged to lock management (acquire/release/detect).
        ns lock_manager_ns: u64,
        /// Virtual CPU charged to fragment execution.
        ns execution_ns: u64,
        /// Virtual CPU charged to rollbacks.
        ns rollback_ns: u64,
        /// Decisions received for transactions this scheduler never saw.
        /// Nonzero only around a failover (a promoted primary receives
        /// decisions for transactions that died with its predecessor); in a
        /// healthy run this must stay 0.
        count stray_decisions: u64,
        /// Distinct multi-partition transactions held at the head of the
        /// queue behind an uncommitted transaction from a *different*
        /// coordinator shard (§4.2.2's same-coordinator-chain rule falling
        /// back to blocking; residual cross-partition deadlocks are broken by
        /// coordinator timeout expiry). Counted once per stall, not per
        /// arrival, the same way under blocking, speculation and OCC. Always 0
        /// with a single coordinator or under sequencing; the measured price
        /// of sharding at high multi-partition fractions.
        count cross_coord_waits: u64,
        /// Distinct multi-partition transactions that stopped speculation
        /// because their fragment voted abort at this partition: whatever the
        /// decision, work speculated past them would be squashed (§4.2's
        /// assume-all-conflict rule). Counted once per transaction, as
        /// `cross_coord_waits` is. Always 0 without aborts, under blocking
        /// (nothing speculates) and under OCC (its survivors are not waste).
        count doomed_waits: u64,
    }
}

impl SchedulerCounters {
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

counters! {
    /// Statistics for the adaptive scheme-selection controller, merged
    /// across partitions by the drivers. All zero / empty when
    /// `SystemConfig::adaptive` is off — the golden table
    /// (`crates/bench/goldens.tsv`), whose first rows predate this subsystem,
    /// pins that the paper's configuration pays nothing for it.
    #[derive(Debug, Clone, Default)]
    pub struct AdaptiveStats {
        /// Live scheme swaps performed.
        count switches: u64,
        /// Sliding windows closed and scored against the model.
        count windows_evaluated: u64,
        /// Fragments held during quiesces and replayed after the swap.
        count held_fragments: u64,
        /// Quiesce stall: time from the switch decision to the partition
        /// draining idle (speculation chains resolved, 2PC settled) so the
        /// swap could happen.
        part quiesce_stall: LatencyHistogram,
        /// Virtual/wall time spent resident in each scheme, indexed by
        /// `Scheme as usize` (blocking, speculation, locking, occ).
        part residency_ns: [u64; 4],
        /// Every switch, in order (partitions interleaved by time).
        part switch_log: Vec<SwitchRecord>,
    }
}

impl AdaptiveStats {
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

counters! {
    /// Counters for the replication subsystem (`hcc-core`'s `ReplicaCore`),
    /// aggregated across all replicas of a run by the drivers. These back the
    /// failover measurements and the "replay failures must be 0 in healthy
    /// runs" invariant every replication test asserts.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReplicationCounters {
        /// Commit records shipped by primaries.
        count records_shipped: u64,
        /// Commit records applied by replicas.
        count records_applied: u64,
        /// Duplicate records skipped by replicas (idempotent re-delivery).
        count records_skipped: u64,
        /// Replay errors: a fragment failed to re-execute on a replica, or a
        /// sequence gap was detected. **Must be 0 in a healthy run** — each one
        /// is a replica that silently diverged from its primary.
        count replay_failures: u64,
        /// Backup→primary promotions (failovers) performed.
        count promotions: u64,
        /// §3.3 recoveries completed (failed node rejoined from a snapshot).
        count recoveries: u64,
        /// State snapshots served by live replicas to recovering nodes.
        count snapshots_served: u64,
        /// Transactions bounced with `PartitionFailed` by a crashed/recovering
        /// node (clients transparently retry them against the new primary).
        count failover_bounces: u64,
        /// Wall/virtual clock when the primary crashed (0 = no failure). At
        /// most one failure is injected per run, so the merge keeps the one
        /// replica's timestamp.
        max failed_at_ns: u64,
        /// Wall/virtual clock when the failed node finished rejoining
        /// (snapshot installed; 0 = no recovery).
        max recovered_at_ns: u64,
    }
}

impl ReplicationCounters {
    /// Crash → rejoined duration, when a failure was injected and the node
    /// came back.
    pub fn time_to_recover(&self) -> Option<Nanos> {
        (self.failed_at_ns > 0 && self.recovered_at_ns >= self.failed_at_ns)
            .then(|| Nanos(self.recovered_at_ns - self.failed_at_ns))
    }
}

counters! {
    /// Counters for the epoch-batched cross-shard sequencing layer, merged
    /// across coordinator shards and partitions by the drivers. All
    /// zero when `SystemConfig::sequencing` is off — the golden table
    /// (`crates/bench/goldens.tsv`), whose first rows predate this subsystem,
    /// pins that the paper's configuration pays nothing for it.
    #[derive(Debug, Clone, Default)]
    pub struct SequencerStats {
        /// Epochs closed across all coordinator shards (including the empty
        /// epochs a shard emits to catch up with its peers).
        count epochs_closed: u64,
        /// Sum of per-epoch batch sizes (entries in closed epochs);
        /// `batch_sum / epochs_closed` is the mean batch.
        count batch_sum: u64,
        /// Largest single epoch batch observed.
        max batch_max: u64,
        /// Epochs closed because a *peer shard's* log for the same (or a
        /// later) epoch arrived — the cascade that keeps the round-robin
        /// merge advancing past idle shards.
        count forced_closes: u64,
        /// Epochs closed by the age boundary
        /// (`hcc_core::sequencer::EPOCH_MAX_AGE`) rather than the count
        /// boundary.
        count age_closes: u64,
        /// Epoch logs a promoted partition primary discarded because they
        /// predate its membership era (their unacked transactions are
        /// re-sequenced by the shards in the new era).
        count logs_discarded: u64,
        /// Multi-partition round-0 fragments a partition admitted without an
        /// epoch-log entry (failover redelivery, era-discarded stragglers) —
        /// nonzero only around failures.
        count passthrough: u64,
        /// `CrossCoordinator` aborts observed while sequencing was on. Under
        /// sequencing these should be impossible (the merged epoch order
        /// leaves nothing for expiry to break); the golden table asserts it
        /// is 0 under sequencing.
        count cross_coord_aborts: u64,
        /// Time multi-partition invocations spent held in a shard's open
        /// epoch before dispatch (submission → epoch close).
        part seq_hold: LatencyHistogram,
    }
}

impl SequencerStats {
    /// Mean entries per closed epoch (0 when no epoch closed).
    pub fn mean_batch(&self) -> f64 {
        if self.epochs_closed == 0 {
            0.0
        } else {
            self.batch_sum as f64 / self.epochs_closed as f64
        }
    }
}

counters! {
    /// Counters for the durable command log, aggregated across all
    /// partitions of a run by the drivers. Zero everywhere when durability is
    /// off — the golden table (`crates/bench/goldens.tsv`), whose first rows
    /// predate this subsystem, pins that the paper's configuration pays
    /// nothing for it.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DurabilityCounters {
        /// Commit records appended to the durable log.
        count records_appended: u64,
        /// Group-commit syncs performed.
        count syncs: u64,
        /// Committed results whose release waited on a group-commit sync
        /// (the rest found their batch already durable).
        count results_held: u64,
        /// Batches aborted by the stalled-log guard; their transactions were
        /// bounced to clients with the retryable `LogStalled`.
        count stalled_aborts: u64,
        /// Records discarded at recovery because the tail write was torn
        /// (partial final record detected by length/checksum framing).
        count torn_tails_discarded: u64,
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

    crate::counters! {
        /// Every field a `u64`, so the block has a `delta_since`.
        #[derive(Debug, Default, PartialEq)]
        struct Window {
            count sent: u64,
            max largest: u64,
            ns send_ns: u64,
        }
    }

    crate::counters! {
        /// One field of each kind.
        #[derive(Debug, Default)]
        struct Probe {
            count sent: u64,
            ns send_ns: u64,
            max largest: u64,
            part window: Window,
        }
    }

    #[test]
    fn counters_macro_follows_each_kind() {
        let window = |sent, largest, send_ns| Window {
            sent,
            largest,
            send_ns,
        };
        let mut a = Probe {
            sent: 2,
            send_ns: 10,
            largest: 7,
            window: window(1, 3, 5),
        };
        let b = Probe {
            sent: 3,
            send_ns: 20,
            largest: 4,
            window: window(4, 9, 6),
        };
        a.merge(&b);
        assert_eq!((a.sent, a.send_ns, a.largest), (5, 30, 7));
        assert_eq!(a.window, window(5, 9, 11), "a part merges itself");

        let mut columns = Vec::new();
        a.visit(|name, value| columns.push((name, value)));
        assert_eq!(columns, [("sent", 5), ("largest", 7)], "no ns, no part");
        columns.clear();
        a.window.visit(|name, value| columns.push((name, value)));
        assert_eq!(columns, [("sent", 5), ("largest", 9)]);

        let later = window(3, 2, 40);
        assert_eq!(later.delta_since(&window(1, 5, 50)), window(2, 0, 0));
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
