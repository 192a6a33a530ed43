//! The system's actors and the two drivers that step them: one config
//! ([`RuntimeConfig`]), one report ([`RuntimeReport`]), one failure
//! vocabulary ([`FailurePlan`]).
//!
//! The actor model mirrors the paper: one single-threaded execution engine
//! per partition (§2.3), one central coordinator (§3.3), closed-loop
//! clients (§5), and — when replication is enabled — one backup per
//! partition applying committed transactions in commit order (§3.2). All
//! of that protocol logic lives in [`actors`] as poll-driven state
//! machines over the cores from `hcc-core`, wired once
//! ([`build_actors`], [`TickPlan`]) for every driver. [`BackendChoice`]
//! picks the driver per run, and [`run`] dispatches to it:
//!
//! * [`multiplexed`] — the live driver: every actor multiplexed onto a
//!   small fixed worker pool: clients and partitions owned by one worker
//!   each, batched worker-to-worker mail, and a mailbox plus ready list
//!   only for the coordinator shards and the membership actor (a
//!   hand-rolled reactor — the build is offline). Memory and thread count
//!   stay flat as clients grow, which is what lets a single host drive
//!   thousands of closed-loop clients.
//! * [`sim::Simulation`] — single-threaded, off a virtual-time heap that
//!   charges the `Nanos` every `step` returns: the calibrated Table-2
//!   costs, so its curves reproduce the paper's hardware ratios where the
//!   live driver measures whatever the host delivers (in-process message
//!   passing is ~100× faster than the paper's Ethernet, so its
//!   multi-partition stalls are proportionally smaller). A run is a pure
//!   function of `(config, seed)`: the reference the live driver is checked
//!   against, and with [`Simulation::preempt_senders`] an explorer of its
//!   schedules.
//!
//! The reactor's worker queues and inboxes and the simulator's constant
//! per-hop latency both preserve per-link FIFO order and causal delivery,
//! the properties the speculation protocol relies on.
//!
//! Every driver counts the measurement window's outcomes through the same
//! [`RunControl`], harvests the same actors and honours every field of
//! the same [`FailurePlan`], each on its own clock. What only one driver
//! has, the report marks as such: per-worker reactor counters
//! ([`RuntimeReport::workers`]) and virtual-time figures
//! ([`RuntimeReport::virtual_time`]).

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

pub mod actors;
pub mod multiplexed;
pub mod sim;

pub use sim::Simulation;

use crate::actors::{
    ActorId, ClientActor, CoordinatorActor, MembershipActor, Msg, OutMsg, Outcome, ReplicaActor,
    ReplicaParts, Retired, RunControl,
};
use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, LatencySummary, ReplicationCounters, SchedulerCounters,
    SequencerStats,
};
use hcc_common::{
    ClientId, CoordinatorId, FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig,
};
use hcc_core::client::ClientStats;
use hcc_core::coordinator::{stall_expiry, CoordCounters};
use hcc_core::sequencer::EPOCH_MAX_AGE;
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::DurableLog;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Which driver steps the actors. Every runtime entry point takes one
/// explicitly — there is no implicit default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// All actors on a fixed pool of `workers` threads.
    Multiplexed { workers: usize },
    /// The virtual-time simulator. With `shadow`, every partition keeps a
    /// backup that costs no virtual time, for state comparison (the
    /// paper's §3.2 backups replay the commit order one transaction at a
    /// time, so primary ≡ backup doubles as a serializability check): with
    /// `system.replication == 1` it is a real `ReplicaActor` co-located
    /// with its primary, whose group-internal mail is delivered at once and
    /// for free. With `system.replication >= 2` the backups exist anyway,
    /// remote, and every `Commit` / `CommitAck` pays the network.
    Sim { shadow: bool },
}

impl BackendChoice {
    /// The multiplexed backend with automatic pool sizing (`workers == 0`
    /// resolves to the host's available parallelism).
    pub const fn multiplexed() -> Self {
        BackendChoice::Multiplexed { workers: 0 }
    }

    /// Parse a CLI-style backend name (`multiplexed[:N]` | `sim[:shadow]`,
    /// where a bare `multiplexed` or `:0` sizes the pool automatically).
    /// Rejects anything else with a message naming the bad input — a typo
    /// must not silently fall back to a default backend.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "multiplexed" => Ok(BackendChoice::multiplexed()),
            "sim" => Ok(BackendChoice::Sim { shadow: false }),
            "sim:shadow" => Ok(BackendChoice::Sim { shadow: true }),
            _ => match s.strip_prefix("multiplexed:") {
                Some(n) => n
                    .parse()
                    .map(|workers| BackendChoice::Multiplexed { workers })
                    .map_err(|_| {
                        format!("bad worker count {n:?} in backend {s:?} (expected multiplexed:N)")
                    }),
                None => Err(format!(
                    "unknown backend {s:?} (expected `multiplexed[:N]` or `sim[:shadow]`)"
                )),
            },
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Multiplexed { workers: 0 } => f.write_str("multiplexed"),
            BackendChoice::Multiplexed { workers } => write!(f, "multiplexed:{workers}"),
            BackendChoice::Sim { shadow: false } => f.write_str("sim"),
            BackendChoice::Sim { shadow: true } => f.write_str("sim:shadow"),
        }
    }
}

/// How long a run lasts, on the driver's clock (the simulator's is
/// virtual).
#[derive(Debug, Clone, Copy)]
pub enum RunMode {
    /// Warm up, then measure for a fixed window (throughput runs; the
    /// in-window counts and latency samples come from the window).
    Timed { warmup: Duration, measure: Duration },
    /// Every client drives exactly this many requests to a final outcome
    /// (commit or user abort; transparent retries don't count), then the
    /// run drains. Total work is a pure function of the workload seed, so
    /// two drivers given the same inputs must agree on the final
    /// committed state — the cross-driver equivalence contract. The window
    /// is the whole run.
    FixedRequests(u64),
}

/// Run configuration: the system under test, the driver that steps it,
/// the measurement protocol, and optional fault injection.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub system: SystemConfig,
    pub backend: BackendChoice,
    pub mode: RunMode,
    /// Kill one group's primary and drive the promote → recover protocol
    /// (requires a backup: `system.replication >= 2`, or the simulator's
    /// shadow).
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

    /// A timed window, as a `Duration` or the simulator's `Nanos`.
    pub fn with_window(
        mut self,
        warmup: impl Into<Duration>,
        measure: impl Into<Duration>,
    ) -> Self {
        self.mode = RunMode::Timed {
            warmup: warmup.into(),
            measure: measure.into(),
        };
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
/// other drivers). `loops` counts scheduling iterations, `steps`
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

/// What only virtual time can say about a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualTime {
    /// Virtual time simulated: the window's close (timed), or the drained
    /// run's end (fixed work).
    pub simulated: Nanos,
    /// Heap events processed (sanity/perf diagnostics).
    pub events: u64,
    /// Fraction of the window each partition spent busy (mean across
    /// partitions).
    pub partition_utilization: f64,
    /// Fraction of the window each coordinator shard spent busy (mean
    /// across shards).
    pub coordinator_utilization: f64,
}

/// What a run produced — the same report from every driver.
pub struct RuntimeReport<E: ExecutionEngine> {
    /// Transactions committed inside the measurement window (for fixed
    /// work, the whole run).
    pub committed: u64,
    /// Final user aborts inside the window (retries exhausted included).
    pub user_aborts: u64,
    /// Results inside the window that the client retried (scheduling and
    /// infrastructure aborts).
    pub retries: u64,
    /// The committed transactions that were multi-partition.
    pub committed_mp: u64,
    /// `committed` ÷ the window's length.
    pub throughput_tps: f64,
    /// Per-client stats merged (whole run), including the end-to-end
    /// latency histogram of committed transactions (in-window samples, or
    /// every sample for fixed work).
    pub clients: ClientStats,
    /// Scheduler counters summed across partitions (whole run).
    pub sched: SchedulerCounters,
    /// Coordinator shard counters summed across shards (whole run).
    pub coord: CoordCounters,
    /// Replication counters summed across all replica nodes. Healthy runs
    /// must report `replay_failures == 0`; failover runs report one
    /// promotion and one recovery plus the crash/recovery timestamps.
    pub replication: ReplicationCounters,
    /// Final primary engines per group (after a failover, the promoted
    /// backup's engine), for state inspection.
    pub engines: Vec<E>,
    /// Final live-backup engines (empty without replication), in
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
    /// Per-worker reactor counters (multiplexed only; empty otherwise).
    /// Index = worker id; partitions home on `group % workers.len()`,
    /// clients on `client % workers.len()`.
    pub workers: Vec<WorkerStats>,
    /// Epoch-sequencing counters summed across coordinator shards and
    /// partition gates (all zero when `SystemConfig::sequencing` is off,
    /// except `cross_coord_aborts`, counted in any mode).
    pub sequencer: SequencerStats,
    /// Adaptive scheme-selection statistics summed across partitions (all
    /// zero/empty when `SystemConfig::adaptive` is off).
    pub adaptive: AdaptiveStats,
    /// Virtual-time figures (the simulator only; `None` otherwise).
    pub virtual_time: Option<VirtualTime>,
}

impl<E: ExecutionEngine> RuntimeReport<E> {
    /// p50/p99/p999 digest of committed-transaction latency.
    pub fn latency(&self) -> LatencySummary {
        self.clients.latency.summary()
    }

    /// Measured multi-partition fraction of the window's commits.
    pub fn mp_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.committed_mp as f64 / self.committed as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:.0} tps ({} committed, {} user aborts, {} retries, mp {:.1}%, {}",
            self.throughput_tps,
            self.committed,
            self.user_aborts,
            self.retries,
            self.mp_fraction() * 100.0,
            self.latency(),
        );
        if let Some(v) = &self.virtual_time {
            s += &format!(
                ", part util {:.0}%, coord util {:.0}%",
                v.partition_utilization * 100.0,
                v.coordinator_utilization * 100.0,
            );
        }
        s + ")"
    }
}

/// Run a workload on the driver selected by `cfg.backend`.
///
/// `build_engine` is called once per replica node: once per partition,
/// plus once per backup.
pub fn run<W, B>(cfg: RuntimeConfig, workload: W, build_engine: B) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    match cfg.backend {
        BackendChoice::Multiplexed { workers } => {
            multiplexed::run(workers, &cfg, workload, build_engine)
        }
        BackendChoice::Sim { .. } => Simulation::new(cfg, workload, build_engine).run().0,
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

/// Build every actor of a run — the one wiring both drivers share.
/// `failure` arms a [`FailAt::Commits`] crash on its group's initial
/// primary and turns on in-doubt commit tracking at the coordinators (a
/// [`FailAt::Time`] crash is the driver's to send); `log` supplies each
/// replica node's durable command log, in (group, slot) order. Each client
/// is handed its share of `workload` ([`RequestGenerator::for_client`]);
/// the driver keeps `workload` itself, behind a lock, only for clients of
/// a generator that does not split.
pub fn build_actors<W: RequestGenerator>(
    system: &SystemConfig,
    mode: RunMode,
    failure: Option<FailurePlan>,
    workload: &mut W,
    build_engine: impl Fn(PartitionId) -> W::Engine,
    mut log: impl FnMut() -> Box<dyn DurableLog + Send>,
) -> Actors<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    if let Some(plan) = failure {
        assert!(
            system.replication >= 2,
            "failure injection needs a backup to fail over to"
        );
        assert!(plan.partition.0 < system.partitions && plan.at != FailAt::Commits(0));
    }
    let requests = match mode {
        RunMode::FixedRequests(k) => Some(k),
        RunMode::Timed { .. } => None,
    };
    let clients = (0..system.clients)
        .map(ClientId)
        .map(|c| ClientActor::new(c, system, requests, workload.for_client(c)))
        .collect();
    let coordinators = (0..system.coordinators.max(1))
        .map(|k| CoordinatorActor::new(system, CoordinatorId(k), failure.is_some()))
        .collect();
    let mut replicas = Vec::new();
    for group in (0..system.partitions).map(PartitionId) {
        for slot in 0..system.replication.max(1) {
            let crash_after = match failure {
                Some(FailurePlan {
                    partition,
                    at: FailAt::Commits(k),
                    ..
                }) if partition == group && slot == 0 => Some(k),
                _ => None,
            };
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

/// Who needs periodic [`Msg::Tick`]s, and how often: one policy for every
/// driver. The reactor turns it into its timer thread, the simulator into
/// heap entries.
/// (Clients additionally expose their exact backoff deadline,
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
    /// The period: a quarter of the lock timeout (which is also the
    /// coordinators' expiry), and at most half of every other deadline a
    /// tick serves (sync deadline, epoch age boundary), so none is
    /// overshot by more than half. Floored at 100 µs — the reactor's floor,
    /// which the benchmark and the soaks run on, and exactly half the
    /// sequencer's age boundary.
    pub every: Nanos,
}

impl TickPlan {
    pub fn new(system: &SystemConfig) -> Self {
        let seq_on = system.sequencing_active();
        let halves = [
            system.durability.map(|d| d.sync_deadline),
            seq_on.then_some(EPOCH_MAX_AGE),
        ];
        let every = halves
            .into_iter()
            .flatten()
            .fold(system.lock_timeout.0 / 4, |every, d| every.min(d.0 / 2));
        TickPlan {
            partitions: system.scheme == Scheme::Locking
                || system.adaptive.is_on()
                || system.durability.is_some(),
            coordinators: stall_expiry(system).is_some() || seq_on,
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

/// Mail the live driver delivers by the wall clock rather than at once: a
/// [`FailAt::Time`] crash, and the membership actor's `Rejoin`, held for
/// the plan's `rejoin_delay` (the simulator keeps both on its event heap).
/// Filled by the driver's [`ActorId::Control`] handler, emptied by its
/// timer thread.
pub(crate) struct TimedMail<E: ExecutionEngine> {
    rejoin_delay: Nanos,
    due: Mutex<Vec<(Nanos, OutMsg<E>)>>,
}

impl<E: ExecutionEngine> TimedMail<E> {
    pub(crate) fn new(failure: Option<FailurePlan>) -> Self {
        let crash = failure.and_then(|f| match f.at {
            FailAt::Time(t) => Some((
                t,
                OutMsg {
                    dest: ActorId::Partition(f.partition),
                    msg: Msg::Crash,
                },
            )),
            FailAt::Commits(_) => None,
        });
        TimedMail {
            rejoin_delay: failure.map_or(Nanos::ZERO, |f| f.rejoin_delay),
            due: Mutex::new(crash.into_iter().collect()),
        }
    }

    /// Mail held right now.
    pub(crate) fn len(&self) -> usize {
        self.due.lock().len()
    }

    /// When the earliest mail held falls due.
    pub(crate) fn next_due(&self) -> Option<Nanos> {
        self.due.lock().iter().map(|(at, _)| *at).min()
    }

    /// A `Rejoin` reached the driver's [`ActorId::Control`] handler at
    /// `now`: the mail for the failed node, to send at once — or `None`,
    /// held until its downtime is over.
    pub(crate) fn rejoin(&self, now: Nanos, msg: Msg<E>) -> Option<OutMsg<E>> {
        let Msg::Rejoin {
            partition, slot, ..
        } = msg
        else {
            unreachable!("control mail is Promoted or Rejoin")
        };
        let m = OutMsg {
            dest: ActorId::Replica(partition, slot),
            msg,
        };
        if self.rejoin_delay == Nanos::ZERO {
            return Some(m);
        }
        self.due.lock().push((now + self.rejoin_delay, m));
        None
    }

    /// Move the mail due by `now` into `out`.
    pub(crate) fn take_due(&self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let mut due = self.due.lock();
        let mut i = 0;
        while i < due.len() {
            if due[i].0 <= now {
                out.push(due.remove(i).1);
            } else {
                i += 1;
            }
        }
    }
}

/// How long a driver's wait loop tolerates no progress at all before it
/// declares the run hung.
const HANG_AFTER: Duration = Duration::from_secs(30);

/// The live driver's wait loop: sleep-poll until `done()`. A run in which
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

/// The live driver's measurement protocol, on the driver thread: a timed
/// run warms up, opens the window for `measure`, then tells the clients to
/// stop (each finishes its transaction in flight). A fixed-work run's
/// window is open from the start and its clients stop by themselves.
pub(crate) fn measure(mode: RunMode, ctl: &RunControl) {
    if let RunMode::Timed { warmup, measure } = mode {
        std::thread::sleep(warmup);
        ctl.window_open.store(true, Ordering::SeqCst);
        std::thread::sleep(measure);
        ctl.window_open.store(false, Ordering::SeqCst);
        ctl.stop.store(true, Ordering::SeqCst);
    }
}

/// A live run's window in seconds: the configured measurement, or for
/// fixed work the wall time its clients took.
pub(crate) fn window_secs(mode: RunMode, elapsed: Duration) -> f64 {
    match mode {
        RunMode::Timed { measure, .. } => measure.as_secs_f64(),
        RunMode::FixedRequests(_) => elapsed.as_secs_f64().max(1e-9),
    }
}

/// What a driver collects from its actors once the run has drained;
/// [`finish`](Self::finish) folds it into the report.
pub(crate) struct Harvest<E: ExecutionEngine> {
    clients: ClientStats,
    coord: CoordCounters,
    /// The per-node blocks summed: the coordinators' sequencer counters as
    /// they are harvested, every node's at [`finish`](Self::finish).
    total: Retired,
    replicas: Vec<ReplicaParts<E>>,
}

impl<E: ExecutionEngine> Harvest<E> {
    pub(crate) fn new() -> Self {
        Harvest {
            clients: ClientStats::default(),
            coord: CoordCounters::default(),
            total: Retired::default(),
            replicas: Vec::new(),
        }
    }

    pub(crate) fn client(&mut self, stats: &ClientStats) {
        self.clients.merge(stats);
    }

    pub(crate) fn coordinator(&mut self, c: &CoordinatorActor<E>) {
        self.coord.merge(c.counters());
        self.total.seq.merge(&c.seq_stats());
    }

    pub(crate) fn replica(&mut self, parts: ReplicaParts<E>) {
        self.replicas.push(parts);
    }

    /// The report of a run whose window `ctl` counted over `secs`: the
    /// primary engine per group, the live backups in (group, slot) order,
    /// and every counter block merged.
    pub(crate) fn finish(self, ctl: &RunControl, secs: f64, groups: usize) -> RuntimeReport<E> {
        let Harvest {
            clients,
            coord,
            mut total,
            mut replicas,
        } = self;
        replicas.sort_by_key(|p| (p.group, p.slot));
        let mut engines: Vec<Option<E>> = (0..groups).map(|_| None).collect();
        let mut logs: Vec<Option<Vec<u8>>> = (0..groups).map(|_| None).collect();
        let mut backups = Vec::new();
        for part in replicas {
            total.merge(&part.counters);
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
        let committed_mp = ctl.in_window(Outcome::CommittedMp);
        let committed = ctl.in_window(Outcome::Committed) + committed_mp;
        RuntimeReport {
            committed,
            user_aborts: ctl.in_window(Outcome::UserAborted),
            retries: ctl.in_window(Outcome::Retried),
            committed_mp,
            throughput_tps: committed as f64 / secs,
            clients,
            sched: total.sched,
            coord,
            replication: total.repl,
            engines,
            backups,
            durability: total.dur,
            logs,
            workers: Vec::new(),
            sequencer: total.seq,
            adaptive: total.adaptive,
            virtual_time: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::Scheme;
    use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

    /// The simulator as the reference, and the reactor.
    pub(super) const BACKENDS: [BackendChoice; 2] = [
        BackendChoice::Sim { shadow: false },
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
            BackendChoice::parse("sim"),
            Ok(BackendChoice::Sim { shadow: false })
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
            BackendChoice::multiplexed(),
            BackendChoice::Multiplexed { workers: 7 },
            BackendChoice::Sim { shadow: false },
            BackendChoice::Sim { shadow: true },
        ] {
            assert_eq!(BackendChoice::parse(&b.to_string()), Ok(b));
        }
        // Garbage is a loud error naming the input, not a silent fallback.
        let err = BackendChoice::parse("green-threads").unwrap_err();
        assert!(err.contains("green-threads"), "{err}");
        // There is no thread-per-actor driver: `threaded` names nothing.
        let err = BackendChoice::parse("threaded").unwrap_err();
        assert!(err.contains("threaded"), "{err}");
        let err = BackendChoice::parse("multiplexed:lots").unwrap_err();
        assert!(err.contains("lots"), "{err}");
    }

    /// Which actors a run ticks, and how often, for each configuration
    /// that changes the answer.
    #[test]
    fn tick_plan_ticks_what_each_configuration_needs() {
        let plan = |system: &SystemConfig| {
            let p = TickPlan::new(system);
            ((p.partitions, p.coordinators, p.clients), p.every)
        };
        let base = SystemConfig::new(Scheme::Speculative);
        let quarter = Nanos(base.lock_timeout.0 / 4);
        assert_eq!(plan(&base), ((false, false, false), quarter));
        // Client-side 2PC: lock-timeout scans at the partitions, and no
        // shard sees a multi-partition transaction, so sequencing is inert.
        let locking = SystemConfig::new(Scheme::Locking);
        assert_eq!(plan(&locking), ((true, false, false), quarter));
        assert_eq!(plan(&locking.clone().with_sequencing(true)), plan(&locking));
        // Two shards expire cross-shard stalls, and clients back off from
        // those aborts; sequenced, the shards age-close epochs instead.
        let two = base.clone().with_coordinators(2);
        assert_eq!(plan(&two), ((false, true, true), quarter));
        let sequenced = two.with_sequencing(true);
        let half_age = Nanos(EPOCH_MAX_AGE.0 / 2);
        assert_eq!(plan(&sequenced), ((false, true, true), half_age));
        // A split: the singleton expires what stalls behind it.
        let mut split = base.clone();
        split.network.split = Some((Nanos::from_millis(1), PartitionId(1)));
        assert_eq!(plan(&split), ((false, true, false), quarter));
        // A sync deadline under the quarter sets the period to its half.
        let deadline = Nanos(quarter.0 / 2);
        let log = hcc_common::DurabilityConfig::default().with_sync_deadline(deadline);
        let durable = base.clone().with_durability(log);
        assert_eq!(plan(&durable), ((true, false, true), Nanos(deadline.0 / 2)));
        // A quarter of 200 µs is under the floor.
        let mut fast = base;
        fast.lock_timeout = Nanos::from_micros(200);
        assert_eq!(
            plan(&fast),
            ((false, false, false), Nanos::from_micros(100))
        );
    }
}

#[cfg(test)]
mod tpcc_tests {
    use super::tests::BACKENDS;
    use super::*;
    use hcc_common::Scheme;
    use hcc_storage::tpcc::consistency;
    use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};

    #[test]
    fn tpcc_runs_live_and_stays_consistent_on_both_backends() {
        for backend in BACKENDS {
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
        for backend in BACKENDS {
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
