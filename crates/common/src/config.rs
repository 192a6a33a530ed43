//! System configuration: which concurrency control scheme to run, how many
//! partitions/clients, and the calibrated cost model that makes the
//! simulator reproduce the paper's testbed.

use crate::ids::{ClientId, CoordinatorId, PartitionId};
use crate::time::Nanos;
use serde::Serialize;

/// The concurrency control schemes compared in the paper, plus the OCC
/// variant the paper sketches in §5.7 (implemented here as an extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    /// §4.1: execute one transaction at a time; block during network stalls.
    Blocking,
    /// §4.2: execute queued transactions speculatively during 2PC stalls;
    /// assume every pair of concurrent transactions conflicts.
    Speculative,
    /// §4.3: strict two-phase locking, single-threaded (no latching), with
    /// the no-lock fast path when no multi-partition transaction is active.
    Locking,
    /// §5.7 extension: optimistic concurrency control with read/write set
    /// tracking and backward validation at commit.
    Occ,
}

impl Scheme {
    pub const ALL: [Scheme; 4] = [Self::Blocking, Self::Speculative, Self::Locking, Self::Occ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Blocking => "blocking",
            Scheme::Speculative => "speculation",
            Scheme::Locking => "locking",
            Scheme::Occ => "occ",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Network model for the simulator (the live drivers move mail in process
/// and ignore it): fixed one-way latency between any two processes,
/// mirroring the paper's single gigabit switch (measured 40 µs RTT, so
/// 20 µs one way).
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    pub one_way: Nanos,
    /// §3.3's "the network splits during execution": from the given time
    /// on, every message addressed to the partition is dropped. The
    /// coordinator then aborts what stalls behind it with a final
    /// `RemoteAbort` after [`SystemConfig::lock_timeout`], and the
    /// survivors roll back and continue. A single-coordinator scenario.
    pub split: Option<(Nanos, PartitionId)>,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            one_way: Nanos::from_micros(20),
            split: None,
        }
    }
}

/// CPU cost model, calibrated against the paper's Table 2.
///
/// The simulator executes real Rust code against real storage but charges
/// *virtual* CPU according to this model, so that the three time scales that
/// drive the paper's results — single-partition work, multi-partition work,
/// and the network stall — have the published ratios regardless of host
/// hardware.
///
/// Table 2 of the paper: t_sp = 64 µs, t_spS = 73 µs, t_mp = 211 µs,
/// t_mpC = 55 µs, t_mpN = t_mp − t_mpC = 156 µs, l = 13.2 %. The values
/// derived from this model are `hcc_model::ModelParams::of`'s.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed CPU cost for receiving/dispatching any message at a partition.
    pub partition_msg_fixed: Nanos,
    /// CPU cost per logical storage operation **unit**. The microbenchmark
    /// counts one key read or write as one unit and a read-modify-write as
    /// two (so the §5.4 two-round variant, which splits RMWs into a read
    /// round and a write round, costs the same total work as the one-round
    /// original — "This performs the same amount of work as the original
    /// benchmark"). TPC-C counts one row operation as two units.
    pub per_op: Nanos,
    /// Extra fixed CPU at a participant for each round of a multi-partition
    /// transaction (marshalling fragment responses, 2PC bookkeeping).
    pub mp_round_fixed: Nanos,
    /// Multiplier >= 1 applied to execution when an undo buffer is recorded
    /// (Table 2: t_spS / t_sp = 73/64 ≈ 1.14).
    pub undo_overhead: f64,
    /// Multiplier >= 1 applied to execution when read/write sets are
    /// tracked without a lock table (the OCC extension; Table 2's l =
    /// 13.2 % → 1.132 for the 12-lock microbenchmark transaction).
    pub lock_overhead: f64,
    /// CPU per lock acquired (covers acquire + release + lock-table
    /// maintenance). Charged by the locking scheduler per fragment lock.
    /// Calibration: the microbenchmark's 12-lock transaction pays
    /// 12 × 0.7 µs = 8.4 µs ≈ 13.2 % of t_sp (Table 2's `l`), while a
    /// ~25-lock TPC-C new-order pays ~35 % — matching the paper's §5.6
    /// profile ("34% of the execution time is spent in the lock
    /// implementation... more locks are acquired for each transaction").
    pub per_lock: Nanos,
    /// CPU cost of undoing one previously executed transaction during an
    /// abort cascade (cheaper than forward execution: walk the undo buffer).
    pub rollback_per_op: Nanos,
    /// CPU cost of suspending a transaction on a lock conflict and later
    /// resuming it (§5.2: "when there are conflicts, there is additional
    /// overhead to suspend and resume execution"). Charged once per wait.
    pub suspend_resume: Nanos,
    /// Central coordinator CPU per message received or sent. This is what
    /// saturates the coordinator at high multi-partition fractions
    /// (paper §5.1: "the central coordinator uses 100% of the CPU").
    pub coord_per_msg: Nanos,
    /// Client CPU per message. Clients are never a throughput bottleneck,
    /// but under the locking scheme the *client* runs two-phase commit
    /// (§4.3), so its per-message processing extends the time
    /// multi-partition transactions hold locks — which is what makes
    /// conflicts expensive (Figure 5).
    pub client_per_msg: Nanos,
}

impl Default for CostModel {
    /// Calibration: with the microbenchmark's 12 read-modify-writes (24
    /// units) per transaction, single-partition execution costs
    /// 24 × 2 µs + 16 µs = 64 µs = t_sp. A multi-partition fragment
    /// (6 RMWs = 12 units at each of 2 partitions) costs
    /// (12 × 2 µs + 16 µs + 15 µs) × 73/64 = 62.7 µs = t_mpC (with undo).
    fn default() -> Self {
        CostModel {
            partition_msg_fixed: Nanos::from_micros(16),
            per_op: Nanos::from_micros(2),
            mp_round_fixed: Nanos::from_micros(15),
            undo_overhead: 73.0 / 64.0,
            lock_overhead: 1.132,
            per_lock: Nanos(700),
            rollback_per_op: Nanos::from_micros(1),
            suspend_resume: Nanos::from_micros(35),
            coord_per_msg: Nanos::from_micros(12),
            client_per_msg: Nanos::from_micros(15),
        }
    }
}

impl CostModel {
    /// Virtual CPU charged for executing a fragment of `ops` logical
    /// operations under the given overheads.
    pub fn fragment_cost(&self, ops: u32, undo: bool, locks: bool, multi_partition: bool) -> Nanos {
        let mut base = self.partition_msg_fixed + Nanos(self.per_op.0 * ops as u64);
        if multi_partition {
            base += self.mp_round_fixed;
        }
        let mut factor = 1.0;
        if undo {
            factor *= self.undo_overhead;
        }
        if locks {
            factor *= self.lock_overhead;
        }
        base.scale(factor)
    }

    /// Virtual CPU charged for rolling back a fragment of `ops` operations.
    pub fn rollback_cost(&self, ops: u32) -> Nanos {
        Nanos(self.rollback_per_op.0 * ops as u64)
    }
}

/// Failure injection, honoured by every driver: crash the primary of one
/// replica group, fail over to its first backup, and rejoin the dead node.
///
/// At the crash the primary flushes results already replicated, bounces
/// every in-flight transaction with [`crate::AbortReason::PartitionFailed`],
/// notifies the membership actor (standing in for the failure detector),
/// and goes dark. The membership actor promotes the first backup and tells
/// the dead node to rejoin via a §3.3 state copy once `rejoin_delay` has
/// passed. Requires a backup to promote (`replication >= 2`, or the
/// simulator's shadow).
#[derive(Debug, Clone, Copy)]
pub struct FailurePlan {
    /// Replica group whose primary crashes.
    pub partition: PartitionId,
    pub at: FailAt,
    /// How long the failed node stays down before it starts rejoining.
    pub rejoin_delay: Nanos,
}

/// When a [`FailurePlan`]'s primary crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAt {
    /// Once it has shipped this many commit records (>= 1): the same
    /// *logical* point on every driver and host speed.
    Commits(u64),
    /// At this time since the run started, on the driver's clock (virtual
    /// in the simulator, the wall clock in the live drivers).
    Time(Nanos),
}

/// Durable command logging with group commit (ISSUE 6).
///
/// When present, every partition appends one encoded
/// [`crate::CommitRecord`] per commit to an injectable durable log and
/// *holds the client-visible result* until the record's group-commit
/// batch is synced, so a crash loses no acknowledged transaction. What
/// closes a batch is not configured: the driver syncs whenever it has
/// nothing more to hand the partition (see `hcc_core::group_commit`), so a
/// lone commit waits for one sync and a loaded partition amortises one
/// sync over everything committed meanwhile. `None` (the default) is the
/// paper's configuration: memory-only, replication as the sole failure
/// story, and bit-identical behaviour to every pre-durability run (the
/// golden table, `crates/bench/goldens.tsv`, pins this: its first rows
/// predate durability).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Virtual latency of the sync itself (the fsync stand-in charged by
    /// the simulator's in-memory log; the live runtime pays the real
    /// device instead).
    pub sync_latency: Nanos,
    /// Stalled-log guard: if the oldest unsynced record has been waiting
    /// longer than this (a stalled or failed device), the partition aborts
    /// the held batch with the retryable
    /// [`crate::AbortReason::LogStalled`] instead of wedging its commit
    /// chain.
    pub sync_deadline: Nanos,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_latency: Nanos::from_micros(100),
            sync_deadline: Nanos::from_millis(10),
        }
    }
}

impl DurabilityConfig {
    pub fn with_sync_deadline(mut self, deadline: Nanos) -> Self {
        self.sync_deadline = deadline;
        self
    }
}

/// Client-side retry policy for *infrastructure* aborts — the retryable
/// reasons that signal contention on a shared resource rather than a
/// scheduling conflict ([`crate::AbortReason::PartitionFailed`],
/// [`crate::AbortReason::CrossCoordinator`],
/// [`crate::AbortReason::LogStalled`]). Immediate re-submit of these turns
/// a failover or a stalled log into a retry storm; instead clients back
/// off exponentially (doubling from 50 µs, capped at 5 ms: the constants
/// beside the backoff in `hcc_core::client`) with deterministic
/// per-attempt jitter. Scheduling aborts (deadlock victim,
/// lock timeout, speculation failure) still retry immediately — the
/// paper's schedulers resolve those themselves.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Give up (count the transaction as exhausted, surface the abort to
    /// the workload) after this many consecutive retryable aborts of one
    /// request. `u32::MAX` retries forever.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: u32::MAX,
        }
    }
}

impl RetryConfig {
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n;
        self
    }
}

/// Adaptive scheme selection (ISSUE 10, the paper's §5.7 closed loop).
///
/// When on, every partition's scheduler carries an adaptive controller
/// that measures its own workload over sliding windows (mp-fraction, abort
/// rate, conflict rate, mean fragment length — from `SchedulerCounters`
/// *deltas*, not lifetime totals), feeds the observations into the §6
/// analytical model, and live-swaps the partition's scheme when the
/// predicted winner beats the incumbent by `margin` for
/// [`AdaptiveConfig::CONSECUTIVE_WINDOWS`] consecutive windows. The
/// configured [`SystemConfig::scheme`] is the *initial* scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptiveConfig {
    /// No adaptation: the configured scheme is pinned for the whole run
    /// (the paper's configuration; bit-identical to every pre-adaptive
    /// run, as the golden table's first rows, which predate it, pin).
    Off,
    /// Model-driven switching.
    Model {
        /// Hysteresis margin: the predicted winner's score must exceed the
        /// incumbent's by this relative fraction (e.g. 0.10 = 10%) in
        /// every qualifying window.
        margin: f64,
        /// Window length in transaction *outcomes* (commits + aborts) at
        /// the partition. Counting outcomes rather than time keeps window
        /// boundaries — and hence switch points — bit-deterministic in
        /// the simulator and identical across runtime backends under
        /// fixed-work runs.
        window: u32,
    },
}

impl AdaptiveConfig {
    /// Hysteresis depth: the same non-incumbent winner must clear the
    /// margin in this many consecutive windows before a switch starts.
    pub const CONSECUTIVE_WINDOWS: u32 = 3;

    pub fn is_on(self) -> bool {
        matches!(self, AdaptiveConfig::Model { .. })
    }
}

/// Top-level system configuration shared by every driver.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub scheme: Scheme,
    pub partitions: u32,
    pub clients: u32,
    /// Central coordinator shards (>= 1). Clients are statically
    /// partitioned across shards (`client % coordinators`), each shard runs
    /// its own 2PC and speculation-chain state, and §4.2.2 dependency
    /// chains never cross shards: partitions fall back to *blocking*
    /// behind another shard's chain (counted in
    /// `SchedulerCounters::cross_coord_waits`), and the shards expire
    /// stalled transactions after `lock_timeout` with the retryable
    /// `CrossCoordinator` abort to break residual cross-partition
    /// deadlocks. 1 reproduces the paper's singleton.
    pub coordinators: u32,
    /// Replication factor `k`: number of copies of each partition (1 = no
    /// replication). The paper commits a transaction once it is on `k`
    /// replicas (§2.2).
    pub replication: u32,
    pub network: NetworkModel,
    pub costs: CostModel,
    /// Lock-wait timeout used to resolve distributed deadlock (§4.3).
    pub lock_timeout: Nanos,
    /// Cap on the number of transactions speculated while a multi-partition
    /// transaction waits for 2PC. `usize::MAX` reproduces the paper; small
    /// values implement the §5.3 suggestion to "limit the amount of
    /// speculation to avoid wasted work" under high abort rates. Honoured
    /// by speculation and OCC; blocking *is* depth 0, whatever this says.
    pub max_speculation_depth: usize,
    /// Restrict speculation to *local* speculation (§4.2.1): speculative
    /// multi-partition results are buffered in the partition instead of
    /// being released to the coordinator with dependencies. Used to
    /// reproduce Figure 10's "Measured Local Spec" curve. Honoured by
    /// speculation and OCC (blocking, at depth 0, speculates nothing).
    pub local_speculation_only: bool,
    /// Durable command logging with group commit; `None` (default) is
    /// the paper's memory-only configuration.
    pub durability: Option<DurabilityConfig>,
    /// Client-side backoff for infrastructure aborts.
    pub retry: RetryConfig,
    /// Epoch-batched deterministic cross-shard sequencing of
    /// multi-partition transactions (Calvin/STAR-style; the epoch
    /// boundaries are `hcc_core::sequencer`'s). Off by default — the
    /// paper's configuration. Each coordinator shard batches its
    /// multi-partition invocations into epochs, and partitions admit
    /// round-0 fragments in the round-robin merge of the shards' epoch
    /// logs, so speculation chains may span shards and cross-shard
    /// deadlocks cannot form. It orders what the shards dispatch, so it
    /// is active wherever they dispatch multi-partition work: every
    /// configuration but [`Self::client_2pc`]'s
    /// ([`Self::sequencing_active`]).
    pub sequencing: bool,
    /// Adaptive scheme selection: when on, [`Self::scheme`] is only the
    /// *initial* scheme and each partition re-plans live from observed
    /// statistics via the §6 model. Multi-partition work then always goes
    /// through the coordinator shards (a partition's scheme can change
    /// between rounds), so it composes with [`Self::sequencing`] from
    /// every starting scheme: the controller holds fragments the
    /// partition's sequencer has already admitted and replays them in
    /// that order.
    pub adaptive: AdaptiveConfig,
    /// RNG seed for workload generation; a run is a pure function of
    /// (config, workload, seed).
    pub seed: u64,
}

impl SystemConfig {
    pub fn new(scheme: Scheme) -> Self {
        SystemConfig {
            scheme,
            partitions: 2,
            clients: 40,
            coordinators: 1,
            replication: 1,
            network: NetworkModel::default(),
            costs: CostModel::default(),
            // Long enough that convoy waits under heavy conflict never
            // false-positive (the §5.2 workload is deadlock-free by
            // construction); real distributed deadlocks (TPC-C, §5.6) pay
            // this as the paper describes.
            lock_timeout: Nanos::from_millis(20),
            max_speculation_depth: usize::MAX,
            local_speculation_only: false,
            durability: None,
            retry: RetryConfig::default(),
            sequencing: false,
            adaptive: AdaptiveConfig::Off,
            seed: 0xC0FFEE,
        }
    }

    pub fn with_partitions(mut self, n: u32) -> Self {
        self.partitions = n;
        self
    }

    pub fn with_clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_replication(mut self, k: u32) -> Self {
        self.replication = k;
        self
    }

    pub fn with_coordinators(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one coordinator shard");
        self.coordinators = n;
        self
    }

    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        self.durability = Some(d);
        self
    }

    pub fn with_retry(mut self, r: RetryConfig) -> Self {
        self.retry = r;
        self
    }

    pub fn with_sequencing(mut self, on: bool) -> Self {
        self.sequencing = on;
        self
    }

    pub fn with_adaptive(mut self, a: AdaptiveConfig) -> Self {
        self.adaptive = a;
        self
    }

    /// Whether clients run their own multi-partition 2PC (§4.3): the
    /// locking scheme, pinned. Under adaptive selection a partition's
    /// scheme can change between rounds, so multi-partition work routes
    /// through the scheme-agnostic coordinator shards whatever the
    /// starting scheme.
    #[inline]
    pub fn client_2pc(&self) -> bool {
        self.scheme == Scheme::Locking && !self.adaptive.is_on()
    }

    /// Whether the sequencing layer actually runs: the switch is on *and*
    /// multi-partition transactions pass the coordinator shards (with
    /// client-driven 2PC no shard sees them, so there is nothing to
    /// order).
    #[inline]
    pub fn sequencing_active(&self) -> bool {
        self.sequencing && !self.client_2pc()
    }

    /// The coordinator shard that owns a client's multi-partition
    /// transactions: a static partitioning, so a transaction's coordinator
    /// is a pure function of the issuing client and chains of transactions
    /// from one client always share a shard.
    #[inline]
    pub fn coordinator_of(&self, client: ClientId) -> CoordinatorId {
        CoordinatorId(client.0 % self.coordinators.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_overhead_is_multiplicative() {
        let c = CostModel::default();
        let plain = c.fragment_cost(24, false, false, false);
        let locked = c.fragment_cost(24, false, true, false);
        let ratio = locked.0 as f64 / plain.0 as f64;
        assert!((ratio - 1.132).abs() < 1e-3);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Blocking.to_string(), "blocking");
        assert_eq!(Scheme::Speculative.to_string(), "speculation");
        assert_eq!(Scheme::Locking.to_string(), "locking");
        assert_eq!(Scheme::Occ.to_string(), "occ");
        // Every scheme, in declaration order (`scheme as usize` indexes
        // per-scheme arrays), and padded like a string.
        assert_eq!(
            Scheme::ALL.map(Scheme::name),
            ["blocking", "speculation", "locking", "occ"]
        );
        assert_eq!(format!("{:<6}|", Scheme::Occ), "occ   |");
    }

    #[test]
    fn config_builders() {
        let cfg = SystemConfig::new(Scheme::Speculative)
            .with_partitions(4)
            .with_clients(10)
            .with_seed(42)
            .with_replication(2)
            .with_coordinators(2);
        assert_eq!(cfg.partitions, 4);
        assert_eq!(cfg.clients, 10);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.coordinators, 2);
    }

    #[test]
    fn adaptive_composes_with_sequencing() {
        let model = AdaptiveConfig::Model {
            margin: 0.1,
            window: 64,
        };
        for scheme in [
            Scheme::Blocking,
            Scheme::Speculative,
            Scheme::Locking,
            Scheme::Occ,
        ] {
            let cfg = SystemConfig::new(scheme)
                .with_adaptive(model)
                .with_sequencing(true);
            assert!(!cfg.client_2pc(), "{scheme}");
            assert!(cfg.sequencing_active(), "{scheme}");
        }
    }

    #[test]
    fn sequencing_is_inert_for_locking() {
        assert!(SystemConfig::new(Scheme::Speculative)
            .with_sequencing(true)
            .sequencing_active());
        let pinned = SystemConfig::new(Scheme::Locking).with_sequencing(true);
        assert!(pinned.client_2pc());
        assert!(!pinned.sequencing_active());
        // An adaptive run that starts in Locking routes its
        // multi-partition work through the shards, so it is sequenced.
        let adaptive = pinned.with_adaptive(AdaptiveConfig::Model {
            margin: 0.1,
            window: 64,
        });
        assert!(!adaptive.client_2pc());
        assert!(adaptive.sequencing_active());
        assert!(!SystemConfig::new(Scheme::Speculative).sequencing_active());
    }

    #[test]
    fn coordinator_partitioning_is_static_modulo() {
        let cfg = SystemConfig::new(Scheme::Speculative).with_coordinators(3);
        assert_eq!(cfg.coordinator_of(ClientId(0)), CoordinatorId(0));
        assert_eq!(cfg.coordinator_of(ClientId(4)), CoordinatorId(1));
        assert_eq!(cfg.coordinator_of(ClientId(5)), CoordinatorId(2));
        // The singleton maps every client to shard 0.
        let one = SystemConfig::new(Scheme::Blocking);
        assert_eq!(one.coordinator_of(ClientId(17)), CoordinatorId(0));
    }
}
