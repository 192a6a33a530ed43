//! The simulation driver: actors, routing, time accounting, metrics.

use crate::event::{ClientIn, CoordIn, Ev, HeapItem, PartIn};
use crate::report::SimReport;
use hcc_common::codec::encode_to_vec;
use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, LatencyHistogram, ReplicationCounters, SchedulerCounters,
    SequencerStats,
};
use hcc_common::{
    AbortReason, ClientId, CommitRecord, CoordinatorId, CoordinatorRef, FragmentTask, FxHashMap,
    FxHashSet, Nanos, PartitionId, Scheme, SchemeSwitch, SystemConfig, TxnId, TxnResult,
};
use hcc_core::client::{ClientCore, NextAction, PendingRequest};
use hcc_core::coordinator::{CoordCounters, CoordOut, Coordinator};
use hcc_core::membership::MembershipCore;
use hcc_core::replica::{failover_bounce, FailoverBounce, ReplicaCore, ReplicationSession};
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    broadcast_dests, make_scheduler, make_scheduler_resumed, Admit, CloseKind, ClosedEpoch,
    EpochLogDest, ExecutionEngine, FlushDecision, GroupCommit, Outbox, PartitionOut,
    PartitionSequencer, Request, RequestGenerator, Scheduler, ShardSequencer,
};
use hcc_storage::{DurableLog, FaultMode, MemLog};
use std::collections::BinaryHeap;

/// Simulation parameters: the system under test plus the measurement
/// protocol (the paper uses 15 s warm-up and 60 s measurement; scaled-down
/// virtual windows give the same steady-state numbers in a fraction of the
/// host time, and the bench harness verifies window-insensitivity).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub system: SystemConfig,
    pub warmup: Nanos,
    pub measure: Nanos,
    /// Maintain a backup replica per partition through the shared
    /// `ReplicaCore` — commit-order log shipping replayed in sequence,
    /// exposed for state comparison (the paper's §3.2 backups; comparing
    /// primary and replica doubles as a serializability check).
    pub shadow_replica: bool,
    /// Fault injection: at the given time, the partition crashes — it
    /// silently drops every message from then on (§3.3's failure model:
    /// "the transaction causes one partition to crash or the network
    /// splits during execution").
    pub fail_partition: Option<(Nanos, PartitionId)>,
    /// When set, the central coordinator aborts transactions pending
    /// longer than this (the 2PC recovery path for participant failure).
    pub coordinator_timeout: Option<Nanos>,
    /// Replicated fault injection (requires `shadow_replica`): kill the
    /// primary at the given time — its backup is promoted in place
    /// (in-flight transactions bounce with `PartitionFailed`) — and after
    /// `rejoin_delay` the failed node rejoins §3.3-style from a snapshot
    /// of the new primary's committed state, catching up from the log.
    pub failover: Option<SimFailover>,
}

/// Parameters of a simulated kill → promote → recover scenario.
#[derive(Debug, Clone, Copy)]
pub struct SimFailover {
    pub at: Nanos,
    pub partition: PartitionId,
    /// Virtual time between the kill and the failed node's rejoin.
    pub rejoin_delay: Nanos,
}

impl SimConfig {
    pub fn new(system: SystemConfig) -> Self {
        SimConfig {
            system,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(1000),
            shadow_replica: false,
            fail_partition: None,
            coordinator_timeout: None,
            failover: None,
        }
    }

    /// Crash `partition` at time `at` and enable coordinator expiry of
    /// stalled transactions.
    pub fn with_partition_failure(mut self, at: Nanos, partition: PartitionId) -> Self {
        self.fail_partition = Some((at, partition));
        self.coordinator_timeout = Some(Nanos::from_millis(2));
        self
    }

    pub fn with_window(mut self, warmup: Nanos, measure: Nanos) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    pub fn with_shadow(mut self) -> Self {
        self.shadow_replica = true;
        self
    }

    /// Kill `partition`'s primary at `at`, promote its replica, and
    /// rejoin the failed node `rejoin_delay` later (enables the replica).
    pub fn with_failover(mut self, at: Nanos, partition: PartitionId, rejoin_delay: Nanos) -> Self {
        self.shadow_replica = true;
        self.failover = Some(SimFailover {
            at,
            partition,
            rejoin_delay,
        });
        self
    }
}

struct SimClient<E: ExecutionEngine> {
    core: ClientCore,
    pending: Option<PendingRequest<E::Fragment, E::Output>>,
    driver: TxnDriver<E::Fragment, E::Output>,
    current_txn: Option<TxnId>,
    current_is_mp: bool,
    submitted_at: Nanos,
    busy: Nanos,
}

/// Durability gate verdict for a committed result (see
/// [`Simulation::durability_gate`]).
enum DurGate {
    /// Every participant record is durable: release the result.
    Deliver,
    /// Some record is appended but not yet synced (or not yet appended):
    /// park the result until the sync completes.
    Hold,
    /// A record was abandoned (append failed, or its batch stall-aborted):
    /// bounce the result with the retryable `LogStalled`.
    Bounce,
}

/// One run of the system under a workload. Deterministic given the config
/// and workload seed.
pub struct Simulation<W: RequestGenerator> {
    cfg: SimConfig,
    workload: W,
    queue: BinaryHeap<HeapItem<W::Engine>>,
    seq: u64,
    now: Nanos,

    engines: Vec<W::Engine>,
    scheds: Vec<Box<dyn Scheduler<W::Engine>>>,
    part_busy: Vec<Nanos>,
    part_busy_in_window: Vec<u64>,
    tick_pending: Vec<bool>,

    /// Coordinator shards; clients are statically partitioned across them
    /// (`SystemConfig::coordinator_of`). One shard reproduces the paper.
    coords: Vec<
        Coordinator<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
    >,
    coord_busy: Vec<Nanos>,
    coord_busy_in_window: Vec<u64>,
    /// The control-plane membership/epoch authority (failover mode).
    membership: MembershipCore,

    // --- Epoch sequencing (SystemConfig::sequencing) ---------------------
    /// Per coordinator shard: the invocation buffer + epoch-log emitter.
    /// `None` when sequencing is off (every path below is then inert,
    /// keeping the default event stream untouched).
    shard_seq: Option<
        Vec<
            ShardSequencer<
                <W::Engine as ExecutionEngine>::Fragment,
                <W::Engine as ExecutionEngine>::Output,
            >,
        >,
    >,
    /// Per partition: the round-robin epoch merge + admission gate.
    part_seq: Option<Vec<PartitionSequencer<<W::Engine as ExecutionEngine>::Fragment>>>,
    /// Per shard: the (era, epoch) an `Ev::EpochClose` age timer was armed
    /// for — a close in the meantime advances the pair, disarming it.
    seq_armed: Vec<Option<(u32, u64)>>,
    /// Sim-level sequencer counters (cross-coordinator aborts observed,
    /// sequencers retired by failover); live stats merge in at report time.
    seq_stats: SequencerStats,
    /// Per partition: transactions the promoted primary applied during its
    /// backup past — the exactly-once guard for in-doubt commit
    /// redelivery (empty until a kill).
    promoted_applied: Vec<FxHashSet<TxnId>>,

    // Reused hot-path buffers: one event in steady state allocates
    // nothing — scheduler outputs, coordinator outputs, and same-time
    // delivery batches all recycle their backing storage.
    outbox: Outbox<<W::Engine as ExecutionEngine>::Output>,
    out_scratch: Vec<PartitionOut<<W::Engine as ExecutionEngine>::Output>>,
    coord_out: Vec<
        CoordOut<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    >,
    batch_pool: Vec<Vec<Ev<W::Engine>>>,

    clients: Vec<SimClient<W::Engine>>,

    /// Backup replicas (replay position + engine) per partition, through
    /// the shared `ReplicaCore`. A slot is `None` between a kill and the
    /// node's rejoin.
    replicas: Option<Vec<Option<(ReplicaCore, W::Engine)>>>,
    /// Primary-side replication sessions (in-flight fragment buffers +
    /// commit-order sequencer), one per partition.
    sessions: Vec<ReplicationSession<<W::Engine as ExecutionEngine>::Fragment>>,
    /// Replication counters folded from retired replicas/sessions (live
    /// replica counters merge in at report time).
    repl: ReplicationCounters,
    /// Scheduler counters of schedulers retired by a failover (the dead
    /// primary's pre-crash work must still be reported).
    sched_retired: SchedulerCounters,

    /// After the measurement window the simulation *drains*: clients stop
    /// issuing new requests and all in-flight transactions complete, so
    /// final primary and shadow states are comparable.
    draining: bool,

    // --- Durability (SystemConfig::durability) ---------------------------
    /// Durable command log + group-commit policy per partition. `None`
    /// when durability is off (every path below is then inert, keeping
    /// the golden event stream untouched).
    logs: Option<Vec<(MemLog, GroupCommit)>>,
    /// Participants of each in-flight transaction, from delivered
    /// fragments (the sim is omniscient: it knows which partitions must
    /// log a record before the result may be released).
    txn_parts: FxHashMap<TxnId, Vec<usize>>,
    /// Log record seqs appended so far per in-flight transaction.
    txn_seqs: FxHashMap<TxnId, Vec<(usize, u64)>>,
    /// Committed results parked until every participant record is durable.
    parked: FxHashMap<TxnId, (ClientId, TxnResult<<W::Engine as ExecutionEngine>::Output>)>,
    /// Transactions whose log append failed (write-fault injection);
    /// their committed result bounces with `LogStalled`.
    append_failed: FxHashSet<TxnId>,
    /// Per partition: records at or below this seq that are not durable
    /// were abandoned by a stall abort — results depending on them bounce
    /// instead of parking forever.
    abandoned_below: Vec<u64>,
    /// Sim-side durability counters (parked results, gate-time bounces);
    /// group-commit counters merge in at report time.
    dur: DurabilityCounters,
    /// Crash harness: freeze the event loop right after the k-th commit
    /// record (globally) is appended.
    crash_at_append: Option<u64>,
    appended_total: u64,
    crashed: bool,
    /// Pre-crash commit-record history per partition (crash harness only).
    history: Option<Vec<Vec<CommitRecord<<W::Engine as ExecutionEngine>::Fragment>>>>,
    /// Committed results actually released to clients (crash harness only).
    acked: Vec<TxnId>,

    // Metrics.
    window_start: Nanos,
    window_end: Nanos,
    committed: u64,
    committed_mp: u64,
    user_aborts: u64,
    retries: u64,
    latency: LatencyHistogram,
    events: u64,
}

impl<W: RequestGenerator> Simulation<W>
where
    W::Engine: 'static,
{
    /// Build a simulation: `build_engine` constructs each partition's
    /// loaded engine (and the shadow copy when enabled).
    pub fn new(
        cfg: SimConfig,
        workload: W,
        build_engine: impl Fn(PartitionId) -> W::Engine,
    ) -> Self {
        // Loud startup validation (ISSUE 10): incompatible knob
        // combinations must fail here, not half-work silently.
        if let Err(e) = cfg.system.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let n = cfg.system.partitions as usize;
        let engines: Vec<W::Engine> = (0..n)
            .map(|p| build_engine(PartitionId(p as u32)))
            .collect();
        let replicas = cfg.shadow_replica.then(|| {
            (0..n)
                .map(|p| Some((ReplicaCore::new(), build_engine(PartitionId(p as u32)))))
                .collect()
        });
        if let Some(f) = cfg.failover {
            assert!(
                cfg.shadow_replica && f.partition.as_usize() < n,
                "failover requires a replica to promote"
            );
        }
        // `with_partition_failure` models an unreplicated crash whose
        // stalled transactions are finally aborted (RemoteAbort); with
        // sharded coordinators the same expiry path must instead issue
        // retryable CrossCoordinator aborts for cross-shard waiters. The
        // two semantics cannot share one timeout, so the combination is
        // rejected rather than silently mis-aborting healthy waiters.
        assert!(
            cfg.coordinator_timeout.is_none() || cfg.system.coordinators <= 1,
            "partition-failure injection (coordinator_timeout) is a              single-coordinator scenario"
        );
        let scheds = (0..n)
            .map(|p| make_scheduler::<W::Engine>(&cfg.system, PartitionId(p as u32)))
            .collect();
        let clients = (0..cfg.system.clients)
            .map(|c| SimClient {
                core: ClientCore::with_retry(ClientId(c), cfg.system.retry),
                pending: None,
                driver: TxnDriver::new(cfg.system.costs, ClientId(c)),
                current_txn: None,
                current_is_mp: false,
                submitted_at: Nanos::ZERO,
                busy: Nanos::ZERO,
            })
            .collect();
        let window_start = cfg.warmup;
        let window_end = cfg.warmup + cfg.measure;
        let shards = cfg.system.coordinators.max(1) as usize;
        // In-doubt commit tracking (decision acks + redelivery) only
        // matters when a failover can strand a decision; keeping it off
        // otherwise keeps the no-failure event stream (and the golden
        // determinism values) untouched.
        let track_in_doubt = cfg.failover.is_some();
        let durability = cfg.system.durability;
        let seq_on = cfg.system.sequencing_active();
        let mut coords: Vec<_> = (0..shards)
            .map(|k| Coordinator::shard(cfg.system.costs, CoordinatorId(k as u32), track_in_doubt))
            .collect();
        if seq_on && shards > 1 {
            // Under sequencing, speculation chains legally span shards;
            // each shard broadcasts its commit/abort decisions so peers
            // can settle cross-shard dependencies.
            for (k, coord) in coords.iter_mut().enumerate() {
                let peers = (0..shards)
                    .filter(|&j| j != k)
                    .map(|j| CoordinatorId(j as u32))
                    .collect();
                coord.set_peer_broadcast(peers);
            }
        }
        Simulation {
            coords,
            shard_seq: seq_on.then(|| {
                (0..shards)
                    .map(|k| {
                        ShardSequencer::new(CoordinatorId(k as u32), cfg.system.sequencing.batch())
                    })
                    .collect()
            }),
            part_seq: seq_on.then(|| {
                (0..n)
                    .map(|p| PartitionSequencer::new(PartitionId(p as u32), shards as u32))
                    .collect()
            }),
            seq_armed: vec![None; shards],
            seq_stats: SequencerStats::default(),
            coord_busy: vec![Nanos::ZERO; shards],
            coord_busy_in_window: vec![0; shards],
            membership: MembershipCore::new(),
            promoted_applied: (0..n).map(|_| FxHashSet::default()).collect(),
            outbox: Outbox::new(cfg.system.costs),
            out_scratch: Vec::new(),
            coord_out: Vec::new(),
            batch_pool: Vec::new(),
            cfg,
            workload,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
            engines,
            scheds,
            part_busy: vec![Nanos::ZERO; n],
            part_busy_in_window: vec![0; n],
            tick_pending: vec![false; n],
            clients,
            replicas,
            draining: false,
            logs: durability.map(|d| {
                (0..n)
                    .map(|_| (MemLog::new(), GroupCommit::new(d)))
                    .collect()
            }),
            txn_parts: FxHashMap::default(),
            txn_seqs: FxHashMap::default(),
            parked: FxHashMap::default(),
            append_failed: FxHashSet::default(),
            abandoned_below: vec![0; n],
            dur: DurabilityCounters::default(),
            crash_at_append: None,
            appended_total: 0,
            crashed: false,
            history: None,
            acked: Vec::new(),
            sessions: (0..n).map(|_| ReplicationSession::new()).collect(),
            repl: ReplicationCounters::default(),
            sched_retired: SchedulerCounters::default(),
            window_start,
            window_end,
            committed: 0,
            committed_mp: 0,
            user_aborts: 0,
            retries: 0,
            latency: LatencyHistogram::default(),
            events: 0,
        }
    }

    fn push(&mut self, at: Nanos, ev: Ev<W::Engine>) {
        self.seq += 1;
        self.queue.push(HeapItem {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn one_way(&self) -> Nanos {
        self.cfg.system.network.one_way
    }

    /// Coordinator expiry policy: the participant-failure recovery path
    /// (explicit `coordinator_timeout`, final `RemoteAbort`) or — with
    /// sharded coordinators — the cross-shard distributed-deadlock breaker
    /// (`lock_timeout`, retryable `CrossCoordinator`), mirroring §4.3's
    /// timeout-based resolution under locking. `None` for the paper's
    /// singleton, whose global dispatch order cannot deadlock.
    /// With sequencing on the cross-shard breaker is off by design: the
    /// merged epoch order leaves no out-of-order waits for expiry to
    /// break, so `CrossCoordinator` aborts must not occur at all.
    fn coord_expiry(&self) -> Option<(Nanos, AbortReason)> {
        if let Some(t) = self.cfg.coordinator_timeout {
            Some((t, AbortReason::RemoteAbort))
        } else if self.coords.len() > 1 && !self.cfg.system.sequencing_active() {
            Some((self.cfg.system.lock_timeout, AbortReason::CrossCoordinator))
        } else {
            None
        }
    }

    /// Account busy time clipped to the measurement window.
    fn window_overlap(&self, start: Nanos, end: Nanos) -> u64 {
        let s = start.max(self.window_start);
        let e = end.min(self.window_end);
        e.0.saturating_sub(s.0)
    }

    /// Dispatch a request for client `c` at local time `at`.
    fn dispatch(&mut self, c: usize, at: Nanos) {
        let pending = self.clients[c].pending.as_ref().expect("pending request");
        let req = pending.to_request();
        let txn = self.clients[c].core.next_txn_id();
        self.clients[c].current_txn = Some(txn);
        let one_way = self.one_way();
        let client_id = ClientId(c as u32);
        match req {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => {
                self.clients[c].current_is_mp = false;
                let task = FragmentTask {
                    txn,
                    coordinator: CoordinatorRef::Client(client_id),
                    client: client_id,
                    fragment,
                    multi_partition: false,
                    last_fragment: true,
                    round: 0,
                    can_abort,
                };
                self.push(
                    at + one_way,
                    Ev::ToPartition {
                        p: partition,
                        msg: PartIn::Fragment(task),
                    },
                );
            }
            Request::MultiPartition {
                procedure,
                can_abort,
            } => {
                self.clients[c].current_is_mp = true;
                // Client-coordinated 2PC is the locking scheme's protocol
                // (§4.3) — but under adaptive selection a partition's
                // scheme can change between rounds, so every MP
                // transaction routes through the central coordinator,
                // which is scheme-agnostic.
                let client_2pc =
                    self.cfg.system.scheme == Scheme::Locking && !self.cfg.system.adaptive.is_on();
                match client_2pc {
                    true => {
                        // Client-coordinated 2PC (§4.3).
                        debug_assert!(self.coord_out.is_empty());
                        let mut out = std::mem::take(&mut self.coord_out);
                        self.clients[c]
                            .driver
                            .begin(txn, procedure, can_abort, &mut out);
                        self.coord_out = out;
                        let cpu = self.clients[c].driver.take_cpu();
                        let start = at.max(self.clients[c].busy);
                        self.clients[c].busy = start + cpu;
                        let depart = self.clients[c].busy;
                        self.route_coord_out(depart, Some(c));
                    }
                    _ => {
                        let k = self.cfg.system.coordinator_of(client_id);
                        self.push(
                            at + one_way,
                            Ev::ToCoordinator {
                                k,
                                msg: CoordIn::Invoke {
                                    txn,
                                    client: client_id,
                                    procedure,
                                    can_abort,
                                },
                            },
                        );
                    }
                }
            }
        }
    }

    /// Route the coordinator (or client-driver) outputs accumulated in
    /// `self.coord_out`. `from_client` is the index of the driving client
    /// for locking-mode self-results. Consecutive messages sharing an
    /// arrival time travel as one heap entry (see [`Ev::Batch`]).
    fn route_coord_out(&mut self, depart: Nanos, from_client: Option<usize>) {
        let one_way = self.one_way();
        let mut msgs = std::mem::take(&mut self.coord_out);
        let mut group: Vec<Ev<W::Engine>> = self.batch_pool.pop().unwrap_or_default();
        let mut group_at = Nanos::ZERO;
        for o in msgs.drain(..) {
            let (at, ev) = match o {
                CoordOut::Fragment(p, task) => (
                    depart + one_way,
                    Ev::ToPartition {
                        p,
                        msg: PartIn::Fragment(task),
                    },
                ),
                CoordOut::Decision(p, d, ack_to) => (
                    depart + one_way,
                    Ev::ToPartition {
                        p,
                        msg: PartIn::Decision(d, ack_to),
                    },
                ),
                CoordOut::ClientResult {
                    client,
                    txn,
                    result,
                } => {
                    // From the central coordinator this crosses the
                    // network; from a client's own driver it is local.
                    let delay = if from_client.is_some() {
                        Nanos::ZERO
                    } else {
                        one_way
                    };
                    (
                        depart + delay,
                        Ev::ToClient {
                            c: client,
                            msg: ClientIn::Result { txn, result },
                        },
                    )
                }
                CoordOut::PeerNote(k, note) => (
                    depart + one_way,
                    Ev::ToCoordinator {
                        k,
                        msg: CoordIn::PeerNote(note),
                    },
                ),
                CoordOut::EpochLog(dest, log) => match dest {
                    EpochLogDest::Partition(p) => (
                        depart + one_way,
                        Ev::ToPartition {
                            p,
                            msg: PartIn::EpochLog(log),
                        },
                    ),
                    EpochLogDest::Shard(k) => (
                        depart + one_way,
                        Ev::ToCoordinator {
                            k,
                            msg: CoordIn::EpochLog(log),
                        },
                    ),
                },
            };
            if at != group_at && !group.is_empty() {
                self.flush_group(group_at, &mut group);
            }
            group_at = at;
            group.push(ev);
        }
        if !group.is_empty() {
            self.flush_group(group_at, &mut group);
        }
        self.batch_pool.push(group);
        self.coord_out = msgs;
    }

    /// Push a group of same-arrival events: single events go straight to
    /// the heap, bursts go as one [`Ev::Batch`]. `group` is left empty
    /// (its storage recycled through the batch pool for bursts).
    fn flush_group(&mut self, at: Nanos, group: &mut Vec<Ev<W::Engine>>) {
        if group.len() == 1 {
            let ev = group.pop().expect("non-empty group");
            self.push(at, ev);
        } else {
            let burst = std::mem::replace(group, self.batch_pool.pop().unwrap_or_default());
            self.push(at, Ev::Batch(burst));
        }
    }

    /// Record a delivered fragment for replication (latest per round wins —
    /// a squashed continuation is superseded by its re-sent version).
    fn record_fragment(
        &mut self,
        p: usize,
        task: &FragmentTask<<W::Engine as ExecutionEngine>::Fragment>,
    ) {
        if self.replicas.is_some() || self.logs.is_some() {
            self.sessions[p].record_fragment(task);
        }
        if self.logs.is_some() {
            // Omniscient participant tracking: the result gate knows which
            // partitions must append (and sync) a record for this
            // transaction before its committed result may be released.
            let parts = self.txn_parts.entry(task.txn).or_default();
            if !parts.contains(&p) {
                parts.push(p);
            }
        }
    }

    /// The transaction committed at partition `p`: ship its commit record
    /// and replay it on the replica through the shared `ReplicaCore` —
    /// the paper's backup execution, with sequence-checked replay whose
    /// failures land in the replication counters instead of an assert.
    /// Replay is virtually instantaneous: the sim models the backup
    /// round-trip as added result latency (see `handle_partition`), not
    /// as replica compute.
    fn replica_commit(&mut self, p: usize, txn: TxnId, at: Nanos) {
        if self.replicas.is_none() && self.logs.is_none() {
            return;
        }
        let Some(record) = self.sessions[p].on_commit(txn) else {
            return;
        };
        self.repl.records_shipped += 1;
        // Between a kill and the rejoin the slot is empty: the record is
        // logged (seq advances) with no live consumer.
        if let Some(replicas) = self.replicas.as_mut() {
            if let Some((core, engine)) = replicas[p].as_mut() {
                let _ = core.apply(engine, &record);
            }
        }
        self.log_append(p, txn, &record, at);
    }

    fn replica_abort(&mut self, p: usize, txn: TxnId) {
        if self.replicas.is_some() || self.logs.is_some() {
            self.sessions[p].on_abort(txn);
        }
    }

    /// Adaptive runs: collect scheme-swap notes produced by the scheduler
    /// call that just returned. Each note is stamped onto the partition's
    /// replication session (the next commit record carries it, so a
    /// promoted backup resumes in the same scheme at the same point of the
    /// commit order) and recorded as an observational event in the
    /// deterministic total order.
    fn drain_switch_notes(&mut self, pi: usize, p: PartitionId, at: Nanos) {
        if !self.cfg.system.adaptive.is_on() {
            return;
        }
        for note in self.scheds[pi].take_switch_notes() {
            let sw = SchemeSwitch {
                epoch: note.epoch,
                scheme: note.scheme,
            };
            self.sessions[pi].mark_scheme_switch(sw);
            self.push(
                at,
                Ev::SchemeSwitch {
                    p,
                    epoch: note.epoch,
                    scheme: note.scheme,
                },
            );
        }
    }

    /// Append a commit record to partition `p`'s durable command log:
    /// group-commit bookkeeping, crash-harness accounting, and sync
    /// scheduling. The record's seq in the log equals its replication
    /// session seq (both are dense from 1, in the same append order).
    fn log_append(
        &mut self,
        p: usize,
        txn: TxnId,
        record: &CommitRecord<<W::Engine as ExecutionEngine>::Fragment>,
        at: Nanos,
    ) {
        if self.logs.is_none() || self.crashed {
            return;
        }
        let appended = {
            let log = &mut self.logs.as_mut().expect("checked above")[p].0;
            log.append(&encode_to_vec(record))
        };
        let seq = match appended {
            Ok(seq) => seq,
            Err(_) => {
                // Write-fault injection: the record never made it into the
                // log; the committed result bounces with `LogStalled`.
                self.append_failed.insert(txn);
                return;
            }
        };
        self.txn_seqs.entry(txn).or_default().push((p, seq));
        self.appended_total += 1;
        if let Some(h) = self.history.as_mut() {
            h[p].push(record.clone());
        }
        if self.crash_at_append == Some(self.appended_total) {
            // The whole partition group is killed at this commit index:
            // the event loop freezes and only the durable log survives.
            self.crashed = true;
            return;
        }
        self.logs.as_mut().expect("checked above")[p]
            .1
            .on_append(at);
        self.close_log_batch(p, at);
    }

    /// Partition `p` has nothing more to append right now (the event loop
    /// hands it one event at a time): if a batch is open and no sync is in
    /// flight, issue one; it completes `sync_latency` later
    /// ([`Ev::SyncDone`]). Records appended meanwhile ride the same sync.
    fn close_log_batch(&mut self, p: usize, at: Nanos) {
        let gc = &mut self.logs.as_mut().expect("durability on")[p].1;
        if gc.on_drained() == FlushDecision::SyncNow {
            let latency = gc.config().sync_latency;
            self.push(
                at + latency,
                Ev::SyncDone {
                    p: PartitionId(p as u32),
                },
            );
        }
    }

    fn handle_sync_done(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        if self.logs.is_none() {
            return;
        }
        let synced = {
            let (log, gc) = &mut self.logs.as_mut().expect("checked above")[pi];
            match log.sync() {
                Ok(_) => {
                    gc.on_synced();
                    true
                }
                Err(_) => false,
            }
        };
        if synced {
            // Drained again; the policy decides. (This log's sync covers
            // everything appended by the time it completes, so nothing is
            // left open here — a device that covered only what preceded the
            // issue would start its next batch at this point.)
            self.close_log_batch(pi, at);
            self.release_parked(at);
        } else {
            // Stalled (or failing) device: arm the stall guard. When it
            // fires, the batch aborts instead of wedging its clients.
            if let Some(d) = self.logs.as_ref().expect("checked above")[pi]
                .1
                .stall_deadline()
            {
                self.push(d.max(at), Ev::StallCheck { p });
            }
        }
    }

    /// Release every parked result whose participant records are all
    /// durable now.
    fn release_parked(&mut self, at: Nanos) {
        if self.parked.is_empty() {
            return;
        }
        let mut ready: Vec<TxnId> = self
            .parked
            .keys()
            .filter(|t| matches!(self.durability_gate(**t), DurGate::Deliver))
            .copied()
            .collect();
        ready.sort_unstable();
        for t in ready {
            let (c, result) = self.parked.remove(&t).expect("filtered above");
            self.push(
                at,
                Ev::ToClient {
                    c,
                    msg: ClientIn::Result { txn: t, result },
                },
            );
        }
    }

    fn handle_stall_check(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        let (durable, appended) = {
            let Some(logs) = self.logs.as_ref() else {
                return;
            };
            if !logs[pi].1.stalled(at) {
                return;
            }
            (logs[pi].0.durable(), logs[pi].0.appended())
        };
        // Everything appended so far but not durable is abandoned: parked
        // results waiting on those records bounce with the retryable
        // `LogStalled` instead of wedging (results may reach the gate
        // *after* this sweep — `abandoned_below` catches those).
        self.abandoned_below[pi] = appended;
        let mut victims: Vec<TxnId> = self
            .parked
            .keys()
            .filter(|t| {
                self.txn_seqs
                    .get(t)
                    .is_some_and(|v| v.iter().any(|(q, s)| *q == pi && *s > durable))
            })
            .copied()
            .collect();
        victims.sort_unstable();
        let n = victims.len() as u64;
        for t in victims {
            let (c, _) = self.parked.remove(&t).expect("filtered above");
            self.push(
                at,
                Ev::ToClient {
                    c,
                    msg: ClientIn::Result {
                        txn: t,
                        result: TxnResult::Aborted(AbortReason::LogStalled),
                    },
                },
            );
        }
        self.logs.as_mut().expect("checked above")[pi]
            .1
            .on_stall_abort(n);
    }

    /// What the durability gate says about releasing `txn`'s committed
    /// result right now.
    fn durability_gate(&self, txn: TxnId) -> DurGate {
        let Some(logs) = self.logs.as_ref() else {
            return DurGate::Deliver;
        };
        if self.append_failed.contains(&txn) {
            return DurGate::Bounce;
        }
        let Some(parts) = self.txn_parts.get(&txn) else {
            return DurGate::Deliver;
        };
        let seqs = self.txn_seqs.get(&txn);
        if seqs.map_or(0, Vec::len) < parts.len() {
            // Some participants have not even appended yet (client-driven
            // 2PC delivers the self-result before the decisions land).
            return DurGate::Hold;
        }
        let mut hold = false;
        for (p, s) in seqs.expect("nonempty above") {
            if *s > logs[*p].0.durable() {
                if *s <= self.abandoned_below[*p] {
                    return DurGate::Bounce;
                }
                hold = true;
            }
        }
        if hold {
            DurGate::Hold
        } else {
            DurGate::Deliver
        }
    }

    /// Handle the partition scheduler outputs accumulated in
    /// `self.out_scratch`: route messages, apply shadow commits for
    /// single-partition results. Every message arrives `one_way` after
    /// `depart`, so a multi-message burst travels as one heap entry.
    fn route_partition_out(&mut self, p: usize, depart: Nanos) {
        let one_way = self.one_way();
        let arrival = depart + one_way;
        let mut msgs = std::mem::take(&mut self.out_scratch);
        let mut group: Vec<Ev<W::Engine>> = self.batch_pool.pop().unwrap_or_default();
        for m in msgs.drain(..) {
            let ev = match m {
                PartitionOut::ToClient {
                    client,
                    txn,
                    result,
                } => {
                    match &result {
                        TxnResult::Committed(_) => self.replica_commit(p, txn, depart),
                        TxnResult::Aborted(_) => self.replica_abort(p, txn),
                    }
                    Ev::ToClient {
                        c: client,
                        msg: ClientIn::Result { txn, result },
                    }
                }
                PartitionOut::ToCoordinator { dest, response } => match dest {
                    CoordinatorRef::Central(k) => Ev::ToCoordinator {
                        k,
                        msg: CoordIn::Response(response),
                    },
                    CoordinatorRef::Client(cid) => Ev::ToClient {
                        c: cid,
                        msg: ClientIn::FragResponse(response),
                    },
                },
            };
            group.push(ev);
        }
        if !group.is_empty() {
            self.flush_group(arrival, &mut group);
        }
        self.batch_pool.push(group);
        self.out_scratch = msgs;
    }

    fn handle_partition(
        &mut self,
        p: PartitionId,
        msg: PartIn<<W::Engine as ExecutionEngine>::Fragment>,
        at: Nanos,
    ) {
        // A crashed partition drops everything on the floor.
        if let Some((when, failed)) = self.cfg.fail_partition {
            if p == failed && at >= when {
                return;
            }
        }
        let pi = p.as_usize();
        let start = at.max(self.part_busy[pi]);
        debug_assert!(self.outbox.messages.is_empty() && self.outbox.cpu == Nanos::ZERO);
        // A processed commit decision is acknowledged to the shard that
        // asked (in-doubt tracking) — unless it was *stray* (a transaction
        // that died with a crashed predecessor), which must stay in doubt
        // so the redelivery machinery can close the window.
        let mut ack: Option<(CoordinatorRef, TxnId)> = None;
        match msg {
            PartIn::Fragment(task) => {
                // Exactly-once guard for in-doubt redelivery: a promoted
                // primary that already applied this transaction as a
                // backup acks the commit instead of re-executing it.
                if task.multi_partition && self.promoted_applied[pi].contains(&task.txn) {
                    if let CoordinatorRef::Central(k) = task.coordinator {
                        self.push(
                            at + self.one_way(),
                            Ev::ToCoordinator {
                                k,
                                msg: CoordIn::DecisionAck {
                                    txn: task.txn,
                                    partition: p,
                                },
                            },
                        );
                    }
                    return;
                }
                // Sequencing gate: centrally coordinated MP round-0
                // fragments dispatch in merged epoch order; a fragment
                // ahead of its turn is held until its predecessors arrive.
                if self.part_seq.is_some() && PartitionSequencer::gates(&task) {
                    let admit = self.part_seq.as_mut().expect("checked")[pi].on_mp_fragment(task);
                    match admit {
                        Admit::Deliver(tasks) => {
                            for t in tasks {
                                self.record_fragment(pi, &t);
                                self.scheds[pi].on_fragment(
                                    t,
                                    &mut self.engines[pi],
                                    start,
                                    &mut self.outbox,
                                );
                            }
                        }
                        Admit::Held => {}
                    }
                } else {
                    self.record_fragment(pi, &task);
                    self.scheds[pi].on_fragment(
                        task,
                        &mut self.engines[pi],
                        start,
                        &mut self.outbox,
                    );
                }
            }
            PartIn::EpochLog(log) => {
                if let Some(seqs) = self.part_seq.as_mut() {
                    let released = seqs[pi].on_log(log);
                    for t in released {
                        self.record_fragment(pi, &t);
                        self.scheds[pi].on_fragment(
                            t,
                            &mut self.engines[pi],
                            start,
                            &mut self.outbox,
                        );
                    }
                }
            }
            PartIn::Decision(d, ack_to) => {
                if d.commit {
                    self.replica_commit(pi, d.txn, start);
                } else {
                    self.replica_abort(pi, d.txn);
                }
                let strays_before = self.scheds[pi].counters().stray_decisions;
                self.scheds[pi].on_decision(d, &mut self.engines[pi], start, &mut self.outbox);
                if let Some(k) = ack_to {
                    if d.commit && self.scheds[pi].counters().stray_decisions == strays_before {
                        ack = Some((k, d.txn));
                    }
                }
            }
        }
        // Adaptive runs: a scheme swap may have completed inside the
        // scheduler call above. Stamp it into the replication stream (so
        // backups promote into the same scheme at the same point of the
        // commit order) and into the event log (so the switch is part of
        // the deterministic total order) *before* this event's outgoing
        // messages ship.
        self.drain_switch_notes(pi, p, start);
        // Drain the (recycled) outbox into the scratch buffer.
        let cpu = self.outbox.take_into(&mut self.out_scratch);
        let end = start + cpu;
        self.part_busy[pi] = end;
        self.part_busy_in_window[pi] += self.window_overlap(start, end);
        // Replication: result-bearing messages wait for backup acks (one
        // round trip to the backups), overlapped with execution (§3.2).
        let depart = if self.cfg.system.replication > 1 {
            end.max(at + Nanos(2 * self.one_way().0))
        } else {
            end
        };
        if let Some((to, txn)) = ack {
            match to {
                CoordinatorRef::Central(k) => self.push(
                    depart + self.one_way(),
                    Ev::ToCoordinator {
                        k,
                        msg: CoordIn::DecisionAck { txn, partition: p },
                    },
                ),
                // The sim gates result release omnisciently (see
                // `durability_gate`) rather than through client-driver
                // acks, so a client ack address never occurs here.
                CoordinatorRef::Client(_) => {
                    debug_assert!(false, "sim coordinators never demand client acks")
                }
            }
        }
        self.route_partition_out(pi, depart);
        // Locking needs periodic timeout scans while work is outstanding —
        // and an adaptive partition can be (or become) Locking at any time.
        if (self.cfg.system.scheme == Scheme::Locking || self.cfg.system.adaptive.is_on())
            && !self.tick_pending[pi]
            && !self.scheds[pi].is_idle()
        {
            self.tick_pending[pi] = true;
            let delay = Nanos(self.cfg.system.lock_timeout.0 / 4).max(Nanos(1));
            self.push(end + delay, Ev::Tick { p });
        }
    }

    fn handle_tick(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        self.tick_pending[pi] = false;
        let start = at.max(self.part_busy[pi]);
        debug_assert!(self.outbox.messages.is_empty() && self.outbox.cpu == Nanos::ZERO);
        let next = self.scheds[pi].on_tick(&mut self.engines[pi], start, &mut self.outbox);
        self.drain_switch_notes(pi, p, start);
        let cpu = self.outbox.take_into(&mut self.out_scratch);
        let end = start + cpu;
        self.part_busy[pi] = end;
        self.part_busy_in_window[pi] += self.window_overlap(start, end);
        self.route_partition_out(pi, end);
        if let Some(delay) = next {
            self.tick_pending[pi] = true;
            self.push(end + delay, Ev::Tick { p });
        }
    }

    fn handle_coordinator(&mut self, k: CoordinatorId, msg: CoordIn<W::Engine>, at: Nanos) {
        let ki = k.as_usize();
        let start = at.max(self.coord_busy[ki]);
        debug_assert!(self.coord_out.is_empty());
        let mut out = std::mem::take(&mut self.coord_out);
        match msg {
            CoordIn::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            } => {
                if self.shard_seq.is_some() {
                    // Buffer into the open epoch; dispatch happens when
                    // the epoch closes (count here, age via EpochClose,
                    // cascade via a peer's log).
                    let (was_empty, closed) = {
                        let seqs = self.shard_seq.as_mut().expect("checked");
                        let was_empty = seqs[ki].is_empty();
                        (
                            was_empty,
                            seqs[ki].push(txn, client, procedure, can_abort, start),
                        )
                    };
                    if let Some(closed) = closed {
                        self.emit_closed(ki, closed, start, &mut out);
                    } else if was_empty {
                        let seqs = self.shard_seq.as_ref().expect("checked");
                        self.seq_armed[ki] = Some((seqs[ki].era(), seqs[ki].open_epoch()));
                        let delay = self.cfg.system.sequencing.max_delay();
                        self.push(start + delay, Ev::EpochClose { k });
                    }
                } else {
                    self.coords[ki].on_invoke_at(txn, client, procedure, can_abort, start, &mut out)
                }
            }
            CoordIn::Response(r) => self.coords[ki].on_response(r, &mut out),
            CoordIn::RoutingUpdate { partition, epoch } => {
                let _ = self.coords[ki].on_partition_failed(partition, epoch, &mut out);
                if let Some(shard_seq) = self.shard_seq.as_mut() {
                    // Membership changed: end the era. The open epoch dies
                    // with it — buffered invocations bounce to their
                    // clients for a retry in the new era, and an era-end
                    // marker tells every partition where the merge stops.
                    let (marker, bounced) = shard_seq[ki].on_era_change();
                    let partitions = self.cfg.system.partitions;
                    let shards = self.coords.len() as u32;
                    let mut fanout = 0u64;
                    for dest in broadcast_dests(partitions, shards, k) {
                        out.push(CoordOut::EpochLog(dest, marker.clone()));
                        fanout += 1;
                    }
                    self.coords[ki].charge_extra_msgs(fanout);
                    for inv in bounced {
                        out.push(CoordOut::ClientResult {
                            client: inv.client,
                            txn: inv.txn,
                            result: TxnResult::Aborted(AbortReason::PartitionFailed),
                        });
                    }
                }
            }
            CoordIn::EpochLog(log) => {
                if self.shard_seq.is_some() {
                    let closed =
                        self.shard_seq.as_mut().expect("checked")[ki].on_peer_log(&log, start);
                    for c in closed {
                        self.emit_closed(ki, c, start, &mut out);
                    }
                }
            }
            CoordIn::PeerNote(note) => self.coords[ki].on_peer_decision(note, &mut out),
            CoordIn::DecisionAck { txn, partition } => {
                self.coords[ki].on_decision_ack(txn, partition, &mut out);
            }
            CoordIn::Tick => {
                if let Some((timeout, reason)) = self.coord_expiry() {
                    self.coords[ki].expire_stalled(start, timeout, reason, &mut out);
                    // Tick until the window closes, then once more per
                    // pending txn during the drain (bounded, so the drain
                    // terminates).
                    if start < self.window_end || self.coords[ki].pending() > 0 {
                        self.push(
                            start + Nanos(timeout.0 / 2).max(Nanos(1)),
                            Ev::ToCoordinator {
                                k,
                                msg: CoordIn::Tick,
                            },
                        );
                    }
                }
            }
        }
        self.coord_out = out;
        let cpu = self.coords[ki].take_cpu();
        let end = start + cpu;
        self.coord_busy[ki] = end;
        self.coord_busy_in_window[ki] += self.window_overlap(start, end);
        self.route_coord_out(end, None);
    }

    /// Emit a closed epoch from shard `ki`: broadcast its log to every
    /// partition and peer shard *before* dispatching the epoch's
    /// invocations, so per-link FIFO delivery lands each log ahead of the
    /// round-0 fragments it orders (same arrival batch, earlier slots).
    fn emit_closed(
        &mut self,
        ki: usize,
        closed: ClosedEpoch<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
        now: Nanos,
        out: &mut Vec<
            CoordOut<
                <W::Engine as ExecutionEngine>::Fragment,
                <W::Engine as ExecutionEngine>::Output,
            >,
        >,
    ) {
        let partitions = self.cfg.system.partitions;
        let shards = self.coords.len() as u32;
        let mut fanout = 0u64;
        for dest in broadcast_dests(partitions, shards, CoordinatorId(ki as u32)) {
            out.push(CoordOut::EpochLog(dest, closed.log.clone()));
            fanout += 1;
        }
        self.coords[ki].charge_extra_msgs(fanout);
        for inv in closed.invokes {
            self.coords[ki].on_invoke_at(
                inv.txn,
                inv.client,
                inv.procedure,
                inv.can_abort,
                now,
                out,
            );
        }
    }

    /// Age-boundary close for shard `k`. One-shot: armed when the shard's
    /// buffer became non-empty; the recorded (era, epoch) disarms the
    /// timer if that epoch already closed for another reason.
    fn handle_epoch_close(&mut self, k: CoordinatorId, at: Nanos) {
        let ki = k.as_usize();
        let armed = self.seq_armed[ki].take();
        let Some(seqs) = self.shard_seq.as_ref() else {
            return;
        };
        if armed != Some((seqs[ki].era(), seqs[ki].open_epoch())) || seqs[ki].is_empty() {
            return;
        }
        let start = at.max(self.coord_busy[ki]);
        debug_assert!(self.coord_out.is_empty());
        let mut out = std::mem::take(&mut self.coord_out);
        let closed = self.shard_seq.as_mut().expect("checked")[ki].close(start, CloseKind::Age);
        self.emit_closed(ki, closed, start, &mut out);
        self.coord_out = out;
        let cpu = self.coords[ki].take_cpu();
        let end = start + cpu;
        self.coord_busy[ki] = end;
        self.coord_busy_in_window[ki] += self.window_overlap(start, end);
        self.route_coord_out(end, None);
    }

    fn handle_client(
        &mut self,
        c: ClientId,
        msg: ClientIn<<W::Engine as ExecutionEngine>::Output>,
        at: Nanos,
    ) {
        let ci = c.as_usize();
        match msg {
            ClientIn::Result { txn, mut result } => {
                debug_assert_eq!(self.clients[ci].current_txn, Some(txn), "stray result");
                if matches!(result, TxnResult::Aborted(AbortReason::CrossCoordinator)) {
                    // Satellite assert (ISSUE 8): under sequencing the
                    // merged epoch order leaves nothing for cross-shard
                    // expiry to break — such an abort is a protocol bug.
                    self.seq_stats.cross_coord_aborts += 1;
                    debug_assert!(
                        !self.cfg.system.sequencing_active(),
                        "CrossCoordinator abort while sequencing is on"
                    );
                }
                // Durability gate: a committed result is released only
                // once every participant's commit record is durable. The
                // release (or the stall-guard bounce) re-delivers through
                // this same path.
                if result.is_committed() && self.logs.is_some() {
                    match self.durability_gate(txn) {
                        DurGate::Deliver => {}
                        DurGate::Hold => {
                            self.dur.results_held += 1;
                            self.parked.insert(txn, (c, result));
                            return;
                        }
                        DurGate::Bounce => {
                            self.append_failed.remove(&txn);
                            self.dur.stalled_aborts += 1;
                            result = TxnResult::Aborted(AbortReason::LogStalled);
                        }
                    }
                }
                if self.logs.is_some() {
                    // Either outcome ends this transaction id (retries use
                    // a fresh one): drop its gate bookkeeping.
                    self.txn_parts.remove(&txn);
                    self.txn_seqs.remove(&txn);
                    if self.history.is_some() && result.is_committed() {
                        self.acked.push(txn);
                    }
                }
                let in_window = at >= self.window_start && at < self.window_end;
                match self.clients[ci].core.on_result(&result) {
                    // Infrastructure aborts (CrossCoordinator,
                    // PartitionFailed, LogStalled) come back with a capped
                    // exponential backoff computed by `ClientCore`;
                    // scheduling aborts retry immediately (`after` = 0).
                    // Instant retries of cross-shard bounces livelock in
                    // virtual time — the jittered backoff breaks the
                    // lockstep.
                    NextAction::Retry { after } => {
                        if in_window {
                            self.retries += 1;
                        }
                        if !self.draining {
                            self.dispatch(ci, at + after);
                        }
                    }
                    NextAction::NewRequest => {
                        if in_window {
                            match &result {
                                TxnResult::Committed(_) => {
                                    self.committed += 1;
                                    if self.clients[ci].current_is_mp {
                                        self.committed_mp += 1;
                                    }
                                    self.latency
                                        .record(at.saturating_sub(self.clients[ci].submitted_at));
                                }
                                TxnResult::Aborted(_) => self.user_aborts += 1,
                            }
                        }
                        self.workload.on_result(c, txn, result.is_committed());
                        if !self.draining {
                            let req = self.workload.next_request(c);
                            self.clients[ci].pending = Some(req.into());
                            self.clients[ci].submitted_at = at;
                            self.dispatch(ci, at);
                        }
                    }
                }
            }
            ClientIn::FragResponse(r) => {
                let start = at.max(self.clients[ci].busy);
                debug_assert!(self.coord_out.is_empty());
                let mut out = std::mem::take(&mut self.coord_out);
                self.clients[ci].driver.on_response(r, &mut out);
                self.coord_out = out;
                let cpu = self.clients[ci].driver.take_cpu();
                self.clients[ci].busy = start + cpu;
                let depart = self.clients[ci].busy;
                self.route_coord_out(depart, Some(ci));
            }
        }
    }

    /// Kill `p`'s primary: promote its replica in place (the partition's
    /// address now answers to the promoted node), bounce every in-flight
    /// transaction with `PartitionFailed` (the runtime's crash bounce),
    /// notify the coordinator (the failure detector), and schedule the
    /// dead node's §3.3 rejoin.
    fn handle_kill(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        let one_way = self.one_way();
        let replicas = self.replicas.as_mut().expect("failover requires replicas");
        let (mut core, replica_engine) = replicas[pi].take().expect("replica alive at kill");
        self.promoted_applied[pi] = core.take_applied_txns();
        // Promote: the replica engine (exactly the committed prefix of the
        // commit log) becomes the primary; the dead node's engine and
        // scheduler state are lost — but its counters still describe real
        // pre-crash work, so fold them in before discarding.
        // The promoted node resumes the log at the replica's watermark —
        // no sequence gap.
        self.engines[pi] = replica_engine;
        // The promoted node resumes in whatever scheme the commit log says
        // was in force at the watermark (adaptive runs; `None` otherwise),
        // so failover lands in the same scheme at the same transition
        // epoch as the dead primary's last shipped switch.
        let dead_sched = std::mem::replace(
            &mut self.scheds[pi],
            make_scheduler_resumed::<W::Engine>(&self.cfg.system, p, core.scheme_switch()),
        );
        self.sched_retired.merge(&dead_sched.counters());
        // The dead primary's sequencing state (merge position, held
        // fragments) is lost with it; the promoted node starts unsynced
        // and joins the merge at the first complete post-failover era.
        if let Some(seqs) = self.part_seq.as_mut() {
            let shards = self.coords.len() as u32;
            let old = std::mem::replace(&mut seqs[pi], PartitionSequencer::promoted(p, shards));
            self.seq_stats.merge(old.stats());
        }
        self.part_busy[pi] = at;
        self.repl.merge(&core.counters);
        self.repl.promotions += 1;
        self.repl.failed_at_ns = at.0;
        let mut old_session = std::mem::replace(
            &mut self.sessions[pi],
            ReplicationSession::resume_from(core.watermark()),
        );
        for (txn, frags) in old_session.take_in_flight() {
            let Some(bounce) = failover_bounce(p, txn, &frags) else {
                continue;
            };
            self.repl.failover_bounces += 1;
            let ev = match bounce {
                FailoverBounce::ToClient { client } => Ev::ToClient {
                    c: client,
                    msg: ClientIn::Result {
                        txn,
                        result: TxnResult::Aborted(AbortReason::PartitionFailed),
                    },
                },
                FailoverBounce::ToCoordinator { dest, response } => match dest {
                    CoordinatorRef::Central(k) => Ev::ToCoordinator {
                        k,
                        msg: CoordIn::Response(response),
                    },
                    CoordinatorRef::Client(c) => Ev::ToClient {
                        c,
                        msg: ClientIn::FragResponse(response),
                    },
                },
            };
            self.push(at + one_way, ev);
        }
        // The control plane decides the promotion and fans the
        // epoch-stamped update out to every coordinator shard.
        let up = self.membership.on_primary_failed(p);
        for ki in 0..self.coords.len() {
            self.push(
                at + one_way,
                Ev::ToCoordinator {
                    k: CoordinatorId(ki as u32),
                    msg: CoordIn::RoutingUpdate {
                        partition: p,
                        epoch: up.epoch,
                    },
                },
            );
        }
        let delay = self
            .cfg
            .failover
            .expect("kill implies failover")
            .rejoin_delay;
        self.push(at + delay, Ev::Rejoin { p });
    }

    /// The failed node rejoins: install a snapshot of the live primary's
    /// committed state at the current log position, then catch up from
    /// the log (§3.3) while the group keeps processing.
    fn handle_rejoin(&mut self, p: PartitionId, at: Nanos) {
        let pi = p.as_usize();
        let snapshot = self.engines[pi].snapshot();
        let mut core = ReplicaCore::new();
        core.reset_to(self.sessions[pi].shipped());
        core.counters.snapshots_served += 1;
        let replicas = self.replicas.as_mut().expect("failover requires replicas");
        debug_assert!(replicas[pi].is_none(), "rejoin of a live replica");
        replicas[pi] = Some((core, snapshot));
        self.repl.recoveries += 1;
        self.repl.recovered_at_ns = at.0;
    }

    fn dispatch_event(&mut self, ev: Ev<W::Engine>, at: Nanos) {
        self.events += 1;
        match ev {
            Ev::ToPartition { p, msg } => self.handle_partition(p, msg, at),
            Ev::ToCoordinator { k, msg } => self.handle_coordinator(k, msg, at),
            Ev::ToClient { c, msg } => self.handle_client(c, msg, at),
            Ev::Tick { p } => self.handle_tick(p, at),
            Ev::SyncDone { p } => self.handle_sync_done(p, at),
            Ev::StallCheck { p } => self.handle_stall_check(p, at),
            Ev::EpochClose { k } => self.handle_epoch_close(k, at),
            // Observational marker only — the swap already happened inside
            // the scheduler; this entry just pins it in the event order.
            Ev::SchemeSwitch { .. } => {}
            Ev::Kill { p } => self.handle_kill(p, at),
            Ev::Rejoin { p } => self.handle_rejoin(p, at),
            Ev::Batch(_) => unreachable!("batches are never nested"),
        }
    }

    /// Kick off the clients and drain the event queue — to completion, or
    /// until the crash harness freezes the group.
    fn event_loop(&mut self) {
        if self.coord_expiry().is_some() {
            for ki in 0..self.coords.len() {
                self.push(
                    Nanos(1),
                    Ev::ToCoordinator {
                        k: CoordinatorId(ki as u32),
                        msg: CoordIn::Tick,
                    },
                );
            }
        }
        if let Some(f) = self.cfg.failover {
            self.push(f.at, Ev::Kill { p: f.partition });
        }
        // Kick off every client at t = 0.
        for c in 0..self.clients.len() {
            let req = self.workload.next_request(ClientId(c as u32));
            self.clients[c].pending = Some(req.into());
            self.clients[c].submitted_at = Nanos::ZERO;
            self.dispatch(c, Nanos::ZERO);
        }

        let end = self.window_end;
        // Hard stop far beyond the window: if in-flight work has not
        // drained by then, something is livelocked (a bug tests should
        // catch, not hang on).
        let drain_deadline = Nanos(end.0 + end.0 + Nanos::from_secs(10).0);
        while let Some(item) = self.queue.pop() {
            if self.crashed {
                // Crash-point harness: the whole group died mid-run. The
                // queue's undelivered events (including unreleased
                // results) die with it; only the durable logs survive.
                return;
            }
            if item.at >= end {
                self.draining = true;
            }
            if item.at >= drain_deadline {
                panic!("simulation failed to drain: event at {}", item.at);
            }
            self.now = item.at;
            match item.ev {
                Ev::Batch(mut evs) => {
                    for ev in evs.drain(..) {
                        self.dispatch_event(ev, item.at);
                    }
                    self.batch_pool.push(evs);
                }
                ev => self.dispatch_event(ev, item.at),
            }
        }
    }

    /// Run to the end of the measurement window and report.
    pub fn run(mut self) -> (SimReport, W, Vec<W::Engine>, Option<Vec<W::Engine>>) {
        self.event_loop();
        if cfg!(debug_assertions) {
            for (p, s) in self.scheds.iter().enumerate() {
                // A crashed partition keeps whatever was in flight.
                let failed = matches!(self.cfg.fail_partition, Some((_, fp)) if fp.as_usize() == p);
                assert!(
                    failed || s.is_idle(),
                    "P{p} scheduler not idle after drain (counters: {:?})",
                    s.counters()
                );
            }
        }

        let mut sched = self.sched_retired;
        let mut adaptive = AdaptiveStats::default();
        for s in &self.scheds {
            sched.merge(&s.counters());
            if let Some(a) = s.adaptive_stats(self.now) {
                adaptive.merge(&a);
            }
        }
        let mut replication = self.repl;
        let replicas = self.replicas.map(|groups| {
            groups
                .into_iter()
                .map(|slot| {
                    let (core, engine) = slot.expect("replica alive at end of run");
                    replication.merge(&core.counters);
                    engine
                })
                .collect::<Vec<_>>()
        });
        let window = self.cfg.measure.as_secs_f64();
        let n = self.engines.len() as f64;
        let mut coord = CoordCounters::default();
        for c in &self.coords {
            coord.merge(&c.counters);
        }
        let shards = self.coords.len() as f64;
        let mut durability = self.dur;
        if let Some(logs) = &self.logs {
            for (_, gc) in logs {
                durability.merge(&gc.counters);
            }
        }
        let (mut backoff_retries, mut retry_exhausted) = (0u64, 0u64);
        for c in &self.clients {
            backoff_retries += c.core.stats.backoff_retries;
            retry_exhausted += c.core.stats.retry_exhausted;
        }
        let mut sequencer = self.seq_stats.clone();
        if let Some(seqs) = &self.shard_seq {
            for s in seqs {
                sequencer.merge(s.stats());
            }
        }
        if let Some(seqs) = &self.part_seq {
            for s in seqs {
                sequencer.merge(s.stats());
            }
        }
        let report = SimReport {
            committed: self.committed,
            user_aborts: self.user_aborts,
            retries: self.retries,
            backoff_retries,
            retry_exhausted,
            durability,
            committed_mp: self.committed_mp,
            throughput_tps: self.committed as f64 / window,
            latency: self.latency,
            sched,
            coord,
            replication,
            sequencer,
            adaptive,
            simulated: self.window_end,
            events_processed: self.events,
            partition_utilization: self
                .part_busy_in_window
                .iter()
                .map(|&b| b as f64 / self.cfg.measure.0 as f64)
                .sum::<f64>()
                / n,
            coordinator_utilization: self
                .coord_busy_in_window
                .iter()
                .map(|&b| b as f64 / self.cfg.measure.0 as f64)
                .sum::<f64>()
                / shards,
        };
        (report, self.workload, self.engines, replicas)
    }

    /// Inject a fault into partition `p`'s durable log (durability runs
    /// only): torn tail, stalled syncs, or failing appends.
    pub fn set_log_fault(&mut self, p: PartitionId, fault: FaultMode) {
        self.logs.as_mut().expect("durability is on")[p.as_usize()]
            .0
            .fault = fault;
    }

    /// Crash-point harness: run normally until the `crash_at`-th commit
    /// record (counted globally across partitions) is appended, then kill
    /// the whole partition group on the spot — the event loop freezes,
    /// every in-flight message (including unreleased results) is lost,
    /// and only the durable logs survive. Returns what a recovery (and
    /// its oracle) needs: the per-partition crash images, the durable
    /// watermarks, the full pre-crash commit history, and the set of
    /// results that were actually released to clients.
    ///
    /// Deterministic: the same config and seed crash at the same state
    /// for every `crash_at`, so a sweep over k = 1..N exercises every
    /// commit boundary.
    pub fn run_to_crash(mut self, crash_at: u64) -> CrashHarvest<W::Engine> {
        assert!(
            self.logs.is_some(),
            "run_to_crash requires SystemConfig::durability"
        );
        let n = self.engines.len();
        self.crash_at_append = Some(crash_at);
        self.history = Some((0..n).map(|_| Vec::new()).collect());
        self.event_loop();
        let mut logs = self.logs.take().expect("asserted above");
        CrashHarvest {
            crashed: self.crashed,
            images: logs.iter_mut().map(|(l, _)| l.crash_image()).collect(),
            durable: logs.iter().map(|(l, _)| l.durable()).collect(),
            history: self.history.take().expect("set above"),
            acked: std::mem::take(&mut self.acked),
            appended: self.appended_total,
        }
    }
}

/// What survives a whole-group crash at a commit index (see
/// [`Simulation::run_to_crash`]).
pub struct CrashHarvest<E: ExecutionEngine> {
    /// Whether the crash point was actually reached (false: the run
    /// drained with fewer than `crash_at` commit records).
    pub crashed: bool,
    /// Per partition: the log image recovery reads — the durable prefix,
    /// plus (with the torn-tail fault) a half-written trailing frame.
    pub images: Vec<Vec<u8>>,
    /// Per partition: records durable at the crash point.
    pub durable: Vec<u64>,
    /// Per partition: every commit record appended pre-crash, in order
    /// (the oracle's reference for what each durable prefix replays to).
    pub history: Vec<Vec<CommitRecord<E::Fragment>>>,
    /// Transactions whose committed results were released to clients
    /// pre-crash. Recovery must preserve every one of them.
    pub acked: Vec<TxnId>,
    /// Total commit records appended across partitions when the sim froze.
    pub appended: u64,
}

/// Convenience: run a microbenchmark- or TPC-C-style workload where the
/// workload itself knows how to build engines.
pub fn run_with<W, B>(cfg: SimConfig, workload: W, build: B) -> SimReport
where
    W: RequestGenerator,
    W::Engine: 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    Simulation::new(cfg, workload, build).run().0
}
