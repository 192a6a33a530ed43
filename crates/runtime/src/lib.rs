//! The system's actors and the live runtime that drives them on real OS
//! threads, behind pluggable backends.
//!
//! The actor model mirrors the paper: one single-threaded execution engine
//! per partition (§2.3), one central coordinator (§3.3), closed-loop
//! clients (§5), and — when replication is enabled — one backup per
//! partition applying committed transactions in commit order (§3.2). All
//! of that protocol logic lives in [`actors`] as poll-driven state
//! machines over the cores from `hcc-core`, wired once
//! ([`build_actors`], [`TickPlan`]) for every driver — the two backends
//! here and `hcc-sim`'s virtual-time driver. A [`Backend`] decides how the
//! actors get CPU:
//!
//! * [`threaded::ThreadedBackend`] — one OS thread per actor, parked on a
//!   channel. Faithful to the paper's process model and fastest at small
//!   client counts, but a run with `C` clients costs `C + partitions + 2`
//!   threads: the host drowns well before "millions of users".
//! * [`multiplexed::MultiplexedBackend`] — every actor multiplexed onto a
//!   small fixed worker pool: clients and partitions owned by one worker
//!   each, batched worker-to-worker mail, and a mailbox plus ready list
//!   only for the coordinator shards and the membership actor (a
//!   hand-rolled reactor — the build is offline). Memory and thread count
//!   stay flat as clients grow, which is what lets a single host drive
//!   thousands of closed-loop clients.
//!
//! Crossbeam channels (threaded) and the worker queues and inboxes
//! (multiplexed) both preserve per-link FIFO order, the property the
//! speculation protocol relies on.
//!
//! The runtime is the "it actually runs" build: examples and soak tests
//! use it, and the backup- and backend-equivalence checks run against it.
//! Calibrated performance curves come from `hcc-sim`, which steps these
//! same actors on a virtual clock that reproduces the paper's hardware
//! ratios (the `Nanos` every `step` returns); the runtime measures whatever
//! the host delivers (in-process message passing is ~100× faster than the
//! paper's Ethernet, so its multi-partition stalls are proportionally
//! smaller).

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

pub mod actors;
pub mod multiplexed;
pub mod threaded;

pub use multiplexed::MultiplexedBackend;
pub use threaded::ThreadedBackend;

use crate::actors::{
    ClientActor, CoordinatorActor, MembershipActor, ReplicaActor, ReplicaParts, RunControl,
};
use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, LatencySummary, ReplicationCounters, SchedulerCounters,
    SequencerStats,
};
use hcc_common::{
    AbortReason, ClientId, CoordinatorId, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig,
};
use hcc_core::client::ClientStats;
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::DurableLog;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Which backend drives the actors. Every runtime entry point takes one
/// explicitly — there is no implicit thread-per-actor default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// One OS thread per actor.
    Threaded,
    /// All actors on a fixed pool of `workers` threads.
    Multiplexed { workers: usize },
}

impl BackendChoice {
    /// The multiplexed backend with automatic pool sizing (`workers == 0`
    /// resolves to the host's available parallelism).
    pub const fn multiplexed() -> Self {
        BackendChoice::Multiplexed { workers: 0 }
    }

    /// Parse a CLI-style backend name (`threaded` | `multiplexed[:N]`,
    /// where a bare `multiplexed` or `:0` sizes the pool automatically).
    /// Rejects anything else with a message naming the bad input — a typo
    /// must not silently fall back to a default backend.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "threaded" => Ok(BackendChoice::Threaded),
            "multiplexed" => Ok(BackendChoice::multiplexed()),
            _ => match s.strip_prefix("multiplexed:") {
                Some(n) => n
                    .parse()
                    .map(|workers| BackendChoice::Multiplexed { workers })
                    .map_err(|_| {
                        format!("bad worker count {n:?} in backend {s:?} (expected multiplexed:N)")
                    }),
                None => Err(format!(
                    "unknown backend {s:?} (expected `threaded` or `multiplexed[:N]`)"
                )),
            },
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Threaded => f.write_str("threaded"),
            BackendChoice::Multiplexed { workers: 0 } => f.write_str("multiplexed"),
            BackendChoice::Multiplexed { workers } => write!(f, "multiplexed:{workers}"),
        }
    }
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
pub enum RunMode {
    /// Warm up, then measure for a fixed wall-clock window (throughput
    /// runs; the committed count and latency samples come from the
    /// window).
    Timed { warmup: Duration, measure: Duration },
    /// Every client drives exactly this many requests to a final outcome
    /// (commit or user abort; transparent retries don't count), then the
    /// run drains. Total work is a pure function of the workload seed, so
    /// two backends given the same inputs must agree on the final
    /// committed state — the cross-backend equivalence contract.
    FixedRequests(u64),
}

/// Runtime configuration: the system under test, the backend that drives
/// it, the measurement protocol, and optional fault injection.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub system: SystemConfig,
    pub backend: BackendChoice,
    pub mode: RunMode,
    /// Kill one group's primary at a deterministic point and drive the
    /// promote → recover protocol (requires `system.replication >= 2`).
    pub failure: Option<FailurePlan>,
}

impl RuntimeConfig {
    /// Standard timed run: 200 ms warm-up, 1 s measurement.
    pub fn new(system: SystemConfig, backend: BackendChoice) -> Self {
        RuntimeConfig {
            system,
            backend,
            mode: RunMode::Timed {
                warmup: Duration::from_millis(200),
                measure: Duration::from_secs(1),
            },
            failure: None,
        }
    }

    /// Short timed run for tests and smoke benches: 50 ms warm-up, 300 ms
    /// measurement.
    pub fn quick(system: SystemConfig, backend: BackendChoice) -> Self {
        RuntimeConfig::new(system, backend)
            .with_window(Duration::from_millis(50), Duration::from_millis(300))
    }

    /// Deterministic fixed-work run: `requests_per_client` final outcomes
    /// per client, then drain.
    pub fn fixed_work(
        system: SystemConfig,
        backend: BackendChoice,
        requests_per_client: u64,
    ) -> Self {
        assert!(requests_per_client > 0, "a fixed-work run needs work");
        RuntimeConfig {
            system,
            backend,
            mode: RunMode::FixedRequests(requests_per_client),
            failure: None,
        }
    }

    pub fn with_window(mut self, warmup: Duration, measure: Duration) -> Self {
        self.mode = RunMode::Timed { warmup, measure };
        self
    }

    /// Inject a primary crash (kill → promote → recover); see
    /// [`FailurePlan`].
    pub fn with_failure(mut self, plan: FailurePlan) -> Self {
        self.failure = Some(plan);
        self
    }
}

/// Per-worker reactor counters from a multiplexed run (empty for the
/// threaded backend). `loops` counts scheduling iterations, `steps`
/// messages processed, `parks` sleeps, `steals` runs of a shared actor
/// (coordinator shard or membership) this worker popped from the ready
/// list after a *different* worker published it, and `busy_ns` wall time
/// from each wake-up to the end of the last step before the next park
/// (stepping, routing and polling alike). The no-busy-spin invariant is
/// `loops <= steps + parks + slack`: every iteration either processes
/// mail or goes to sleep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    pub loops: u64,
    pub steps: u64,
    /// Messages stepped on partition-pinned (replica) actors. Non-zero
    /// only on a group's home worker — the partition-affinity invariant.
    pub pinned_steps: u64,
    pub parks: u64,
    pub steals: u64,
    pub busy_ns: u64,
}

/// What a run produced.
pub struct RuntimeReport<E: ExecutionEngine> {
    /// Transactions committed inside the measurement window (timed mode)
    /// or in total (fixed-work mode).
    pub committed: u64,
    pub throughput_tps: f64,
    /// Per-client stats merged (whole run), including the end-to-end
    /// latency histogram of committed transactions.
    pub clients: ClientStats,
    /// Scheduler counters summed across partitions (whole run).
    pub sched: SchedulerCounters,
    /// Replication counters summed across all replica nodes. Healthy runs
    /// must report `replay_failures == 0`; failover runs report one
    /// promotion and one recovery plus the crash/recovery timestamps.
    pub replication: ReplicationCounters,
    /// Final primary engines per group (after a failover, the promoted
    /// backup's engine), for state inspection.
    pub engines: Vec<E>,
    /// Final live-backup engines (when replication was enabled), in
    /// (group, slot) order — after a recovery this includes the rejoined
    /// node.
    pub backups: Vec<E>,
    /// Durable-log counters summed across all logging primaries (all zero
    /// when `SystemConfig::durability` is off).
    pub durability: DurabilityCounters,
    /// Final framed command-log image per group after a clean shutdown
    /// sync (`None` per group when durability is off, or for a group whose
    /// run-ending primary never logged — e.g. torn down mid-failover).
    pub logs: Vec<Option<Vec<u8>>>,
    /// Per-worker reactor counters (multiplexed backend only; empty for
    /// threaded runs). Index = worker id; partitions home on
    /// `group % workers.len()`, clients on `client % workers.len()`.
    pub workers: Vec<WorkerStats>,
    /// Epoch-sequencing counters summed across coordinator shards and
    /// partition gates (all zero when `SystemConfig::sequencing` is off,
    /// except `cross_coord_aborts`, counted in any mode).
    pub sequencer: SequencerStats,
    /// Adaptive scheme-selection statistics summed across partitions (all
    /// zero/empty when `SystemConfig::adaptive` is off).
    pub adaptive: AdaptiveStats,
}

impl<E: ExecutionEngine> RuntimeReport<E> {
    /// p50/p99/p999 digest of committed-transaction latency.
    pub fn latency(&self) -> LatencySummary {
        self.clients.latency.summary()
    }
}

/// A runtime backend: turns a configuration, a workload, and an engine
/// builder into a finished run. Implemented by [`ThreadedBackend`] and
/// [`MultiplexedBackend`]; select one per run via [`BackendChoice`] and
/// [`run`], or call a backend directly.
pub trait Backend {
    fn run<W, B>(
        &self,
        cfg: &RuntimeConfig,
        workload: W,
        build_engine: B,
    ) -> RuntimeReport<W::Engine>
    where
        W: RequestGenerator + Send + 'static,
        W::Engine: Send + 'static,
        <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
        <W::Engine as ExecutionEngine>::Output: Send + 'static,
        B: Fn(PartitionId) -> W::Engine;
}

/// Run a workload on the backend selected by `cfg.backend`.
///
/// `build_engine` is called once per partition (plus once more per
/// partition for its backup when `system.replication > 1`).
pub fn run<W, B>(cfg: RuntimeConfig, workload: W, build_engine: B) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    match cfg.backend {
        BackendChoice::Threaded => ThreadedBackend.run(&cfg, workload, build_engine),
        BackendChoice::Multiplexed { workers } => {
            MultiplexedBackend { workers }.run(&cfg, workload, build_engine)
        }
    }
}

/// The actors of one run, as every driver addresses them: clients by id,
/// coordinator shards by id, replicas in (group, slot) order
/// (`group * replication + slot`).
pub struct Actors<W: RequestGenerator> {
    pub clients: Vec<ClientActor<W>>,
    pub coordinators: Vec<CoordinatorActor<W::Engine>>,
    pub membership: MembershipActor,
    pub replicas: Vec<ReplicaActor<W::Engine>>,
}

/// The coordinators' stall expiry in a healthy deployment: with N > 1
/// shards and sequencing off, a transaction pending longer than
/// `lock_timeout` is presumed caught in a distributed deadlock across
/// shards and aborted with the retryable `CrossCoordinator`. `None` for the
/// paper's singleton (its global dispatch order cannot deadlock) and under
/// sequencing (the merged epoch order leaves nothing for expiry to break).
pub fn cross_shard_expiry(system: &SystemConfig) -> Option<(Nanos, AbortReason)> {
    (system.coordinators > 1 && !system.sequencing_active())
        .then_some((system.lock_timeout, AbortReason::CrossCoordinator))
}

/// Build every actor of a run — the one wiring the threaded backend, the
/// reactor and the simulator share. `failure` arms the count-triggered
/// crash on its group's initial primary and turns on in-doubt commit
/// tracking at the coordinators (a driver that kills by the clock passes a
/// plan whose count is never reached); `expiry` is the coordinators' stall
/// expiry ([`cross_shard_expiry`] in a healthy deployment); `log` supplies
/// each replica node's durable command log, in (group, slot) order.
pub fn build_actors<W: RequestGenerator>(
    system: &SystemConfig,
    mode: RunMode,
    failure: Option<FailurePlan>,
    expiry: Option<(Nanos, AbortReason)>,
    build_engine: impl Fn(PartitionId) -> W::Engine,
    mut log: impl FnMut() -> Box<dyn DurableLog + Send>,
) -> Actors<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    if let Err(e) = system.validate() {
        panic!("invalid SystemConfig: {e}");
    }
    if let Some(plan) = failure {
        assert!(
            system.replication >= 2,
            "failure injection needs a backup to fail over to"
        );
        assert!(plan.partition.0 < system.partitions && plan.after_commits >= 1);
    }
    let requests = match mode {
        RunMode::FixedRequests(k) => Some(k),
        RunMode::Timed { .. } => None,
    };
    let clients = (0..system.clients)
        .map(|c| ClientActor::new(ClientId(c), system, requests))
        .collect();
    let coordinators = (0..system.coordinators.max(1))
        .map(|k| {
            let mut coord = CoordinatorActor::new(
                system.costs,
                CoordinatorId(k),
                failure.is_some(),
                system.durability.is_some(),
                expiry,
            );
            if system.sequencing_active() {
                coord.enable_sequencing(system);
            }
            coord
        })
        .collect();
    let mut replicas = Vec::new();
    for group in (0..system.partitions).map(PartitionId) {
        for slot in 0..system.replication.max(1) {
            let crash_after = failure
                .filter(|f| f.partition == group && slot == 0)
                .map(|f| f.after_commits);
            let (engine, log) = (build_engine(group), log());
            replicas.push(ReplicaActor::new(
                group,
                slot,
                system,
                engine,
                log,
                crash_after,
            ));
        }
    }
    Actors {
        clients,
        coordinators,
        membership: MembershipActor::new(system.coordinators),
        replicas,
    }
}

/// Who needs periodic [`Msg::Tick`](actors::Msg::Tick)s, and how often:
/// one policy for every driver. The threaded backend turns it into receive
/// timeouts, the reactor into its timer thread, the simulator into heap
/// entries. (Clients additionally expose their exact backoff deadline,
/// [`ClientActor::retry_wake`], for drivers with a per-actor timer.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickPlan {
    /// Each group's current primary: lock-timeout scans (the locking
    /// scheme, and an adaptive partition can become Locking at any time)
    /// and the durable log's stall guard.
    pub partitions: bool,
    /// Coordinator shards: stall expiry, and epoch age-closes under
    /// sequencing.
    pub coordinators: bool,
    /// Clients parked in a retry backoff: only configurations that can
    /// produce infrastructure aborts (failover, cross-shard expiry, a
    /// stalled log) ever park one.
    pub clients: bool,
    /// The period: a quarter of the lock timeout, and at most half of every
    /// other deadline a tick serves (sync deadline, epoch age boundary,
    /// coordinator expiry), so none is overshot by more than half. Floored
    /// at 100 µs — the reactor's floor, which the benchmark and the soaks
    /// run on, and exactly half the sequencer's age boundary; the threaded
    /// backend's coordinator threads used 50 µs, a difference that only
    /// showed below a 400 µs lock timeout, which nothing configures.
    pub every: Nanos,
}

impl TickPlan {
    pub fn new(system: &SystemConfig, expiry: Option<(Nanos, AbortReason)>) -> Self {
        let seq_on = system.sequencing_active();
        let halves = [
            system.durability.and_then(|d| d.sync_deadline),
            seq_on.then(|| system.sequencing.max_delay()),
            expiry.map(|(timeout, _)| timeout),
        ];
        let every = halves
            .into_iter()
            .flatten()
            .fold(system.lock_timeout.0 / 4, |every, d| every.min(d.0 / 2));
        TickPlan {
            partitions: system.scheme == Scheme::Locking
                || system.adaptive.is_on()
                || system.durability.is_some(),
            coordinators: expiry.is_some() || seq_on,
            clients: system.replication > 1
                || system.coordinators > 1
                || system.durability.is_some(),
            every: Nanos(every.max(100_000)),
        }
    }
}

pub(crate) fn now_ns(epoch: Instant) -> Nanos {
    Nanos(epoch.elapsed().as_nanos() as u64)
}

/// How long a driver's wait loop tolerates no progress at all before it
/// declares the run hung.
const HANG_AFTER: Duration = Duration::from_secs(30);

/// The drivers' wait loop: sleep-poll until `done()`. A run in which
/// `live_clients`, `pending` (the backend's undelivered-message count, if
/// it keeps one) and the clients' progress beacon all stand still for
/// [`HANG_AFTER`] is hung; panic with the backend's `dump()` rather than
/// sit forever.
pub(crate) fn drain_until(
    ctl: &RunControl,
    pending: impl Fn() -> i64,
    done: impl Fn() -> bool,
    dump: impl Fn() -> String,
) {
    let progress = || {
        (
            ctl.live_clients.load(Ordering::SeqCst),
            pending(),
            ctl.progress(),
        )
    };
    let mut seen = (progress(), Instant::now());
    while !done() {
        std::thread::sleep(Duration::from_micros(200));
        let at = progress();
        if at != seen.0 {
            seen = (at, Instant::now());
        } else if seen.1.elapsed() >= HANG_AFTER {
            panic!(
                "run hung: no progress for {HANG_AFTER:?} (live_clients {}, pending {}, \
                 progress beacon {}, backoff_waiters {}, recovery_done {})\n{}",
                at.0,
                at.1,
                at.2,
                ctl.backoff_waiters(),
                ctl.recovery_done.load(Ordering::SeqCst),
                dump()
            );
        }
    }
}

/// Sort the harvested replica nodes into the report shape: the primary
/// engine per group, the live backups in (group, slot) order, and the
/// merged counter blocks.
pub fn assemble_replicas<E: ExecutionEngine>(
    mut parts: Vec<ReplicaParts<E>>,
    groups: usize,
) -> (
    Vec<E>,
    Vec<E>,
    SchedulerCounters,
    ReplicationCounters,
    DurabilityCounters,
    Vec<Option<Vec<u8>>>,
    SequencerStats,
    AdaptiveStats,
) {
    parts.sort_by_key(|p| (p.group, p.slot));
    let mut sched = SchedulerCounters::default();
    let mut repl = ReplicationCounters::default();
    let mut dur = DurabilityCounters::default();
    let mut seq = SequencerStats::default();
    let mut adaptive = AdaptiveStats::default();
    let mut engines: Vec<Option<E>> = (0..groups).map(|_| None).collect();
    let mut logs: Vec<Option<Vec<u8>>> = (0..groups).map(|_| None).collect();
    let mut backups = Vec::new();
    for part in parts {
        sched.merge(&part.sched);
        repl.merge(&part.repl);
        dur.merge(&part.dur);
        seq.merge(&part.seq);
        adaptive.merge(&part.adaptive);
        if part.is_primary {
            let slot = engines
                .get_mut(part.group.as_usize())
                .expect("group in range");
            debug_assert!(slot.is_none(), "two primaries in one group");
            *slot = Some(part.engine);
            logs[part.group.as_usize()] = part.log_image;
        } else if part.is_backup {
            backups.push(part.engine);
        }
        // Failed/recovering nodes that never finished rejoining (possible
        // only when a timed run is torn down mid-recovery) hold stale
        // state and are reported through the counters alone.
    }
    let engines = engines
        .into_iter()
        .map(|e| e.expect("every group has a primary"))
        .collect();
    (engines, backups, sched, repl, dur, logs, seq, adaptive)
}

/// Finish a report from the pieces every backend harvests.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_report<E: ExecutionEngine>(
    mode: &RunMode,
    committed_in_window: u64,
    elapsed: Duration,
    clients: ClientStats,
    sched: SchedulerCounters,
    replication: ReplicationCounters,
    engines: Vec<E>,
    backups: Vec<E>,
    durability: DurabilityCounters,
    logs: Vec<Option<Vec<u8>>>,
    workers: Vec<WorkerStats>,
    sequencer: SequencerStats,
    adaptive: AdaptiveStats,
) -> RuntimeReport<E> {
    let (committed, secs) = match mode {
        RunMode::Timed { measure, .. } => (committed_in_window, measure.as_secs_f64()),
        RunMode::FixedRequests(_) => (clients.committed, elapsed.as_secs_f64().max(1e-9)),
    };
    RuntimeReport {
        committed,
        throughput_tps: committed as f64 / secs,
        clients,
        sched,
        replication,
        engines,
        backups,
        durability,
        logs,
        workers,
        sequencer,
        adaptive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::Scheme;
    use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

    const BACKENDS: [BackendChoice; 2] = [
        BackendChoice::Threaded,
        BackendChoice::Multiplexed { workers: 4 },
    ];

    fn quick(scheme: Scheme, clients: u32, backend: BackendChoice) -> RuntimeConfig {
        RuntimeConfig::quick(
            SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(clients),
            backend,
        )
        .with_window(Duration::from_millis(30), Duration::from_millis(200))
    }

    fn run_micro(scheme: Scheme, mp: f64, backend: BackendChoice) -> RuntimeReport<MicroEngine> {
        let mc = MicroConfig {
            mp_fraction: mp,
            clients: 8,
            ..Default::default()
        };
        let cfg = quick(scheme, 8, backend);
        let builder = MicroWorkload::new(mc);
        run(cfg, MicroWorkload::new(mc), move |p| {
            builder.build_engine(p)
        })
    }

    #[test]
    fn all_schemes_run_live_with_mp_transactions_on_both_backends() {
        for backend in BACKENDS {
            for scheme in [
                Scheme::Blocking,
                Scheme::Speculative,
                Scheme::Locking,
                Scheme::Occ,
            ] {
                let r = run_micro(scheme, 0.2, backend);
                assert!(
                    r.committed > 100,
                    "{backend}/{scheme}: only {} committed",
                    r.committed
                );
                assert_eq!(
                    r.sched.local_deadlocks, 0,
                    "{backend}/{scheme}: no deadlocks expected"
                );
                // Every partition engine quiesced with no leaked undo buffers.
                for e in &r.engines {
                    assert_eq!(e.live_undo_buffers(), 0, "{backend}/{scheme}");
                }
            }
        }
    }

    #[test]
    fn speculation_speculates_on_both_backends() {
        for backend in BACKENDS {
            let r = run_micro(Scheme::Speculative, 0.5, backend);
            assert!(r.committed > 100, "{backend}");
            // With real (tiny) in-process latencies stalls are short, but
            // speculative executions must still occur at 50% MP.
            assert!(
                r.sched.speculative_executions > 0,
                "{backend}: no speculation happened live"
            );
        }
    }

    #[test]
    fn commit_latency_histogram_is_populated() {
        for backend in BACKENDS {
            let r = run_micro(Scheme::Speculative, 0.2, backend);
            let lat = r.latency();
            assert!(lat.count > 0, "{backend}: no latency samples");
            assert!(lat.p50 > Nanos::ZERO, "{backend}: zero p50");
            assert!(lat.p999 >= lat.p99 && lat.p99 >= lat.p50, "{backend}");
        }
    }

    #[test]
    fn fixed_work_runs_exactly_the_requested_outcomes() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                abort_prob: 0.05,
                clients: 8,
                ..Default::default()
            };
            let cfg = RuntimeConfig::fixed_work(
                SystemConfig::new(Scheme::Speculative)
                    .with_partitions(2)
                    .with_clients(8),
                backend,
                25,
            );
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert_eq!(
                r.clients.committed + r.clients.user_aborted,
                8 * 25,
                "{backend}: every client must drive exactly 25 requests to an outcome"
            );
            for e in &r.engines {
                assert_eq!(e.live_undo_buffers(), 0, "{backend}");
            }
        }
    }

    #[test]
    fn replicated_backups_match_primaries() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                abort_prob: 0.05,
                clients: 8,
                ..Default::default()
            };
            let mut cfg = quick(Scheme::Speculative, 8, backend);
            cfg.system.replication = 2;
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 50, "{backend}");
            assert_eq!(r.backups.len(), r.engines.len());
            for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
                assert_eq!(
                    p.fingerprint(),
                    b.fingerprint(),
                    "{backend}: backup {i} diverged from its primary (failover would lose state)"
                );
            }
        }
    }

    #[test]
    fn locking_backups_match_primaries() {
        for backend in BACKENDS {
            let mc = MicroConfig {
                mp_fraction: 0.3,
                conflict_prob: 0.5,
                clients: 8,
                ..Default::default()
            };
            let mut cfg = quick(Scheme::Locking, 8, backend);
            cfg.system.replication = 2;
            let builder = MicroWorkload::new(mc);
            let r = run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 50, "{backend}");
            for (p, b) in r.engines.iter().zip(r.backups.iter()) {
                assert_eq!(p.fingerprint(), b.fingerprint(), "{backend}");
            }
        }
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!(
            BackendChoice::parse("threaded"),
            Ok(BackendChoice::Threaded)
        );
        assert_eq!(
            BackendChoice::parse("multiplexed"),
            Ok(BackendChoice::multiplexed())
        );
        assert_eq!(
            BackendChoice::parse("multiplexed:7"),
            Ok(BackendChoice::Multiplexed { workers: 7 })
        );
        // Round trip: every backend renders to a spelling that parses back.
        for b in [
            BackendChoice::Threaded,
            BackendChoice::multiplexed(),
            BackendChoice::Multiplexed { workers: 7 },
        ] {
            assert_eq!(BackendChoice::parse(&b.to_string()), Ok(b));
        }
        // Garbage is a loud error naming the input, not a silent fallback.
        let err = BackendChoice::parse("green-threads").unwrap_err();
        assert!(err.contains("green-threads"), "{err}");
        let err = BackendChoice::parse("multiplexed:lots").unwrap_err();
        assert!(err.contains("lots"), "{err}");
    }
}

#[cfg(test)]
mod tpcc_tests {
    use super::*;
    use hcc_common::Scheme;
    use hcc_storage::tpcc::consistency;
    use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};

    #[test]
    fn tpcc_runs_live_and_stays_consistent_on_both_backends() {
        for backend in [
            BackendChoice::Threaded,
            BackendChoice::Multiplexed { workers: 4 },
        ] {
            for scheme in [Scheme::Speculative, Scheme::Locking] {
                let mut tpcc = TpccConfig::new(2, 2);
                tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
                let mut system = SystemConfig::new(scheme).with_partitions(2).with_clients(8);
                system.lock_timeout = Nanos::from_millis(1);
                let cfg = RuntimeConfig::quick(system, backend)
                    .with_window(Duration::from_millis(30), Duration::from_millis(250));
                let builder = TpccWorkload::new(tpcc);
                let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
                    builder.build_engine(p)
                });
                assert!(r.committed > 100, "{backend}/{scheme}: {}", r.committed);
                for (i, e) in r.engines.iter().enumerate() {
                    consistency::check(&e.store).unwrap_or_else(|v| {
                        panic!("{backend}/{scheme}: P{i} inconsistent: {:?}", &v[..1])
                    });
                    assert_eq!(e.live_undo_buffers(), 0, "{backend}/{scheme}: P{i}");
                }
            }
        }
    }

    #[test]
    fn tpcc_replicated_backups_converge() {
        for backend in [
            BackendChoice::Threaded,
            BackendChoice::Multiplexed { workers: 4 },
        ] {
            let mut tpcc = TpccConfig::new(2, 2);
            tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
            tpcc.remote_item_prob = 0.2; // plenty of cross-partition new-orders
            let mut system = SystemConfig::new(Scheme::Speculative)
                .with_partitions(2)
                .with_clients(8);
            system.replication = 2;
            let cfg = RuntimeConfig::quick(system, backend)
                .with_window(Duration::from_millis(30), Duration::from_millis(250));
            let builder = TpccWorkload::new(tpcc);
            let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
                builder.build_engine(p)
            });
            assert!(r.committed > 100, "{backend}");
            for (i, (p, b)) in r.engines.iter().zip(r.backups.iter()).enumerate() {
                assert_eq!(
                    p.store.fingerprint(),
                    b.store.fingerprint(),
                    "{backend}: TPC-C backup {i} diverged — failover would lose transactions"
                );
            }
        }
    }
}
