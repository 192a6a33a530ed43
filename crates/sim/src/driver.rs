//! The virtual-time driver: one thread, one heap, the production actors.

use crate::config::SimConfig;
use crate::report::SimReport;
use hcc_common::codec::decode_exact;
use hcc_common::stats::SequencerStats;
use hcc_common::{
    AbortReason, ClientId, CommitRecord, FailurePlan, Nanos, PartitionId, TxnId, TxnResult,
};
use hcc_core::client::ClientStats;
use hcc_core::coordinator::CoordCounters;
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_runtime::actors::{
    ActorId, ClientActor, ClientCtx, CoordinatorActor, MembershipActor, Msg, OutMsg, ReplicaActor,
    RunControl,
};
use hcc_runtime::{assemble_replicas, build_actors, cross_shard_expiry, Actors, RunMode, TickPlan};
use hcc_storage::{decode_frames, DurableLog, FaultMode, MemLog};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex};

/// What a heap entry brings its addressee.
enum Due<E: ExecutionEngine> {
    /// A message an actor sent, or a tick one of the driver's timers raised.
    Mail(Msg<E>),
    /// The log device answers the sync issued `sync_latency` ago.
    Synced,
    /// `SimConfig::failover`: the addressed group's primary dies now.
    Kill,
}

/// One run of the system under a workload: the production actors
/// ([`hcc_runtime::build_actors`]) stepped on a virtual clock.
/// Deterministic given the config and workload seed.
pub struct Simulation<W: RequestGenerator> {
    cfg: SimConfig,
    one_way: Nanos,
    workload: Mutex<W>,
    ctl: RunControl,
    clients: Vec<ClientActor<W>>,
    coordinators: Vec<CoordinatorActor<W::Engine>>,
    membership: MembershipActor,
    /// (group, slot) order; `slots` per group.
    replicas: Vec<ReplicaActor<W::Engine>>,
    slots: usize,
    /// The backups share their primaries' processes (see
    /// [`SimConfig::shadow_replica`]): mail inside a group is stepped at
    /// once, at no cost.
    colocated: bool,
    /// Routing table: the slot [`ActorId::Partition`] resolves to, flipped
    /// by the membership actor's [`Msg::Promoted`].
    primary: Vec<u32>,
    plan: TickPlan,

    /// What is due, by (time, push order): a total order, hence a
    /// deterministic run, and FIFO on every link (constant latency,
    /// monotone departures).
    heap: BTreeMap<(Nanos, u64), (ActorId, Due<W::Engine>)>,
    seq: u64,
    now: Nanos,
    /// Busy-until clock per actor: clients, then coordinator shards, the
    /// membership actor, the replicas.
    busy: Vec<Nanos>,
    /// Busy time inside the measurement window, same indexing.
    used: Vec<u64>,
    out: Vec<OutMsg<W::Engine>>,
    /// Scratch: what one inline step of co-located group mail produced.
    inline: Vec<OutMsg<W::Engine>>,

    // Driver-side models of what the actors leave to their backend.
    /// Every node's log, in replica order.
    logs: Vec<Arc<StdMutex<MemLog>>>,
    /// Crash harness: the whole group dies at the end of the step that
    /// lands this many commit records (across partitions) in the logs.
    crash_at: u64,
    /// Per node: a sync is at the device.
    syncing: Vec<bool>,
    /// Per actor: a tick for it is on the heap.
    ticking: Vec<bool>,

    // Observation.
    /// Measurement window in virtual time (all of it for fixed work).
    window: (Nanos, Nanos),
    /// Clients' summed (user aborts, retries) at the window's edges.
    at_open: Option<(u64, u64)>,
    at_close: Option<(u64, u64)>,
    /// Per client: its request in flight is multi-partition.
    is_mp: Vec<bool>,
    committed_mp: u64,
    /// Committed results delivered to clients.
    acked: Vec<TxnId>,
    events: u64,
}

impl<W: RequestGenerator> Simulation<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    /// Build a simulation: `build_engine` constructs each node's loaded
    /// engine (primaries and backups).
    pub fn new(
        cfg: SimConfig,
        workload: W,
        build_engine: impl Fn(PartitionId) -> W::Engine,
    ) -> Self {
        let mut system = cfg.system.clone();
        let colocated = cfg.shadow_replica && system.replication <= 1;
        if colocated {
            system.replication = 2;
        }
        if let Some(f) = cfg.failover {
            assert!(
                cfg.shadow_replica && f.partition.0 < system.partitions,
                "failover requires a replica to promote"
            );
        }
        // `with_partition_failure` models an unreplicated crash whose
        // stalled transactions are finally aborted (RemoteAbort); sharded
        // coordinators need the same expiry tick for their retryable
        // CrossCoordinator aborts. One timeout cannot mean both.
        assert!(
            cfg.coordinator_timeout.is_none() || system.coordinators <= 1,
            "partition-failure injection (coordinator_timeout) is a single-coordinator scenario"
        );
        let expiry = match cfg.coordinator_timeout {
            Some(timeout) => Some((timeout, AbortReason::RemoteAbort)),
            None => cross_shard_expiry(&system),
        };
        // The kill comes by the clock (`Due::Kill`), so the plan's count is
        // never reached; the plan still arms in-doubt commit tracking.
        let failure = cfg.failover.map(|f| FailurePlan {
            partition: f.partition,
            after_commits: u64::MAX,
        });
        let mut logs = Vec::new();
        let Actors {
            clients,
            coordinators,
            membership,
            replicas,
        } = build_actors::<W>(&system, cfg.mode, failure, expiry, build_engine, || {
            let log = Arc::new(StdMutex::new(MemLog::new()));
            logs.push(log.clone());
            Box::new(log)
        });
        let window = match cfg.mode {
            RunMode::Timed { warmup, measure } => {
                let open = Nanos(warmup.as_nanos() as u64);
                (open, open + Nanos(measure.as_nanos() as u64))
            }
            RunMode::FixedRequests(_) => (Nanos::ZERO, Nanos(u64::MAX)),
        };
        let actors = clients.len() + coordinators.len() + 1 + replicas.len();
        Simulation {
            one_way: system.network.one_way,
            workload: Mutex::new(workload),
            ctl: RunControl::new(clients.len()),
            slots: system.replication as usize,
            colocated,
            primary: vec![0; system.partitions as usize],
            plan: TickPlan::new(&system, expiry),
            heap: BTreeMap::new(),
            seq: 0,
            now: Nanos::ZERO,
            busy: vec![Nanos::ZERO; actors],
            used: vec![0; actors],
            out: Vec::new(),
            inline: Vec::new(),
            syncing: vec![false; replicas.len()],
            ticking: vec![false; actors],
            logs,
            crash_at: u64::MAX,
            window,
            at_open: None,
            at_close: None,
            is_mp: vec![false; clients.len()],
            committed_mp: 0,
            acked: Vec::new(),
            events: 0,
            cfg,
            clients,
            coordinators,
            membership,
            replicas,
        }
    }

    fn push(&mut self, at: Nanos, to: ActorId, due: Due<W::Engine>) {
        self.seq += 1;
        self.heap.insert((at, self.seq), (to, due));
    }

    fn replica_at(&self, group: PartitionId, slot: u32) -> usize {
        group.as_usize() * self.slots + slot as usize
    }

    /// Commit records appended so far, across every node's log.
    fn appended(&self) -> u64 {
        let appended = |l: &Arc<StdMutex<MemLog>>| l.appended();
        self.logs.iter().map(appended).sum()
    }

    /// Clients' summed (user aborts, retries) so far.
    fn client_totals(&self) -> (u64, u64) {
        self.clients.iter().fold((0, 0), |(aborts, retries), c| {
            (aborts + c.stats().user_aborted, retries + c.stats().retries)
        })
    }

    /// Kick off the clients and drain the heap — to completion, or until
    /// the crash harness kills the group.
    fn event_loop(&mut self) {
        for c in 0..self.clients.len() {
            let to = ActorId::Client(ClientId(c as u32));
            self.push(Nanos::ZERO, to, Due::Mail(Msg::Start));
        }
        if let Some(f) = self.cfg.failover {
            self.push(f.at, ActorId::Partition(f.partition), Due::Kill);
        }
        // Hard stop far beyond the window: if in-flight work has not
        // drained by then, something is livelocked (a bug tests should
        // catch, not hang on).
        let (open, close) = self.window;
        let deadline = Nanos(close.0.saturating_mul(2).saturating_add(10_000_000_000));
        while let Some(((at, _), (to, due))) = self.heap.pop_first() {
            if at >= deadline {
                let busy = (0..self.replicas.len()).filter(|&r| !self.replicas[r].is_idle());
                panic!(
                    "simulation failed to drain: event at {at}, {} clients live, busy nodes {:?}",
                    self.ctl.live_clients.load(Ordering::SeqCst),
                    busy.collect::<Vec<_>>()
                );
            }
            self.now = at;
            self.events += 1;
            if self.at_open.is_none() && at >= open {
                self.ctl.window_open.store(true, Ordering::SeqCst);
                self.at_open = Some(self.client_totals());
            }
            if self.at_close.is_none() && at >= close {
                // Clients finish their transaction in flight, then retire;
                // the run drains so final states are comparable.
                self.ctl.window_open.store(false, Ordering::SeqCst);
                self.ctl.stop.store(true, Ordering::SeqCst);
                self.at_close = Some(self.client_totals());
            }
            self.deliver(at, to, due);
            if self.crash_at != u64::MAX && self.appended() >= self.crash_at {
                // The whole group dies here: everything in flight —
                // unreleased results included — dies with it.
                return;
            }
        }
    }

    /// Deliver one heap entry: the addressee starts on it once it is free,
    /// stays busy for the virtual CPU its step returns, and what it sends
    /// leaves then.
    fn deliver(&mut self, at: Nanos, to: ActorId, due: Due<W::Engine>) {
        let to = match to {
            ActorId::Partition(p) => ActorId::Replica(p, self.primary[p.as_usize()]),
            other => other,
        };
        let shards = self.coordinators.len();
        let i = match to {
            ActorId::Client(c) => c.as_usize(),
            ActorId::Coordinator(k) => self.clients.len() + k.as_usize(),
            ActorId::Membership => self.clients.len() + shards,
            ActorId::Replica(p, s) => {
                // The network drops mail for a dead address.
                if matches!(self.cfg.fail_partition, Some((when, dead)) if dead == p && at >= when)
                {
                    return;
                }
                self.clients.len() + shards + 1 + self.replica_at(p, s)
            }
            // Mail for the backend itself: the routing flip.
            ActorId::Control => {
                if let Due::Mail(Msg::Promoted { partition, slot }) = due {
                    self.primary[partition.as_usize()] = slot;
                }
                return;
            }
            ActorId::Partition(_) => unreachable!("resolved above"),
        };
        // The device's answer is not CPU work: it does not queue behind
        // whatever the node is executing.
        let start = match due {
            Due::Synced => at,
            _ => at.max(self.busy[i]),
        };
        if matches!(due, Due::Mail(Msg::Tick)) {
            self.ticking[i] = false;
        }
        let cpu = match (to, due) {
            (ActorId::Client(c), Due::Mail(msg)) => self.step_client(c, msg, start),
            (ActorId::Coordinator(k), Due::Mail(msg)) => {
                self.coordinators[k.as_usize()].step(msg, start, &mut self.out)
            }
            (ActorId::Membership, Due::Mail(msg)) => {
                self.membership.step(msg, &mut self.out);
                Nanos::ZERO
            }
            (ActorId::Replica(p, s), due) => self.step_replica(p, s, due, start),
            _ => unreachable!("the driver's own events address replicas"),
        };
        let end = start + cpu;
        self.busy[i] = self.busy[i].max(end);
        let (open, close) = self.window;
        self.used[i] += end.min(close).0.saturating_sub(start.max(open).0);
        // Every message leaves when the step ends and crosses the network
        // once — except mail to oneself, and the `Rejoin` that waits out the
        // failed node's downtime.
        let mut out = std::mem::take(&mut self.out);
        for OutMsg { dest, msg } in out.drain(..) {
            let delay = match (&msg, self.cfg.failover) {
                _ if dest == to => Nanos::ZERO,
                (Msg::Rejoin { .. }, Some(f)) => self.one_way + f.rejoin_delay,
                _ => self.one_way,
            };
            self.push(end + delay, dest, Due::Mail(msg));
        }
        self.out = out;
        // Ticks: an actor is ticked, on the plan's period, for as long as
        // it has work a tick could be needed for — started by the step that
        // leaves it with any, stopped by the tick that finds none (so the
        // heap drains).
        let waits = match to {
            ActorId::Coordinator(k) => {
                self.plan.coordinators && !self.coordinators[k.as_usize()].is_idle()
            }
            ActorId::Replica(p, s) => {
                let node = &self.replicas[self.replica_at(p, s)];
                let work = !node.is_idle() || node.has_unsynced();
                self.plan.partitions && node.is_primary() && work
            }
            _ => false,
        };
        if waits && !self.ticking[i] {
            self.ticking[i] = true;
            self.push(end + self.plan.every, to, Due::Mail(Msg::Tick));
        }
    }

    fn step_client(&mut self, c: ClientId, msg: Msg<W::Engine>, now: Nanos) -> Nanos {
        let ci = c.as_usize();
        if let Msg::Result {
            txn,
            result: TxnResult::Committed(_),
        } = &msg
        {
            // A committed result is always final, and it is only ever
            // delivered once every gate (replication, durability) let it by.
            self.acked.push(*txn);
            if self.is_mp[ci] && self.ctl.window_open.load(Ordering::SeqCst) {
                self.committed_mp += 1;
            }
        }
        let parked = self.clients[ci].retry_wake();
        let ctx = ClientCtx {
            workload: &self.workload,
            ctl: &self.ctl,
        };
        let cpu = self.clients[ci].step(msg, now, &ctx, &mut self.out);
        for m in &self.out {
            match &m.msg {
                Msg::Invoke { .. } => self.is_mp[ci] = true,
                Msg::Fragment(task) => self.is_mp[ci] = task.multi_partition,
                _ => {}
            }
        }
        // A backoff the step started ends with a tick at its exact deadline.
        if let (None, Some(wake)) = (parked, self.clients[ci].retry_wake()) {
            self.push(wake, ActorId::Client(c), Due::Mail(Msg::Tick));
        }
        cpu
    }

    fn step_replica(
        &mut self,
        group: PartitionId,
        slot: u32,
        due: Due<W::Engine>,
        now: Nanos,
    ) -> Nanos {
        let r = self.replica_at(group, slot);
        let cpu = match due {
            Due::Mail(msg) => {
                let cpu = self.replicas[r].step(msg, now, &self.ctl, &mut self.out);
                // Sync latency: a logging node that is left with unsynced
                // records and has no sync at the device issues one; the
                // production `on_drained` runs when the device answers, so
                // the sync covers what was appended by then.
                if self.replicas[r].has_unsynced() && !self.syncing[r] {
                    self.syncing[r] = true;
                    let latency = self.cfg.system.durability.map(|d| d.sync_latency);
                    let done = now + cpu + latency.expect("only a durable run logs");
                    self.push(done, ActorId::Replica(group, slot), Due::Synced);
                }
                cpu
            }
            Due::Synced => {
                self.syncing[r] = false;
                self.replicas[r].on_drained(&mut self.out);
                Nanos::ZERO
            }
            Due::Kill => {
                self.replicas[r].crash(now, &mut self.out);
                Nanos::ZERO
            }
        };
        // Co-located backups: mail inside the group never leaves the
        // process, so it is stepped here and now and costs nothing. What it
        // produces takes its place in the output order (a result held for
        // the backup's ack leaves where the scheduler emitted it).
        let mut i = 0;
        while self.colocated && i < self.out.len() {
            match self.out[i].dest {
                ActorId::Replica(g, s) if g == group => {
                    let mail = self.out.remove(i).msg;
                    let peer = self.replica_at(g, s);
                    let _free = self.replicas[peer].step(mail, now, &self.ctl, &mut self.inline);
                    self.out.splice(i..i, self.inline.drain(..));
                }
                _ => i += 1,
            }
        }
        cpu
    }

    /// Run to the end of the measurement window (or of the fixed work),
    /// drain, and report: the report, the workload, each group's primary
    /// engine and — when backups exist — their engines in (group, slot)
    /// order.
    pub fn run(mut self) -> (SimReport, W, Vec<W::Engine>, Option<Vec<W::Engine>>) {
        self.event_loop();
        if cfg!(debug_assertions) {
            for (r, node) in self.replicas.iter().enumerate() {
                // A crashed partition keeps whatever was in flight.
                let group = r / self.slots;
                let dead = matches!(self.cfg.fail_partition, Some((_, p)) if p.as_usize() == group);
                assert!(
                    dead || node.is_idle(),
                    "P{group} scheduler not idle after drain"
                );
            }
        }
        let unacked: usize = self.coordinators.iter().map(|c| c.in_doubt()).sum();
        assert_eq!(unacked, 0, "drained with commits still in doubt");
        let (open, close) = self.window;
        let (span, simulated) = match self.cfg.mode {
            RunMode::Timed { .. } => (close.0 - open.0, close),
            RunMode::FixedRequests(_) => (self.now.0.max(1), self.now),
        };
        let (aborts_open, retries_open) = self.at_open.unwrap_or((0, 0));
        let (aborts_close, retries_close) = self.at_close.unwrap_or_else(|| self.client_totals());
        let committed = self.ctl.committed_in_window();

        let mut clients = ClientStats::default();
        let mut coord = CoordCounters::default();
        let mut sequencer = SequencerStats::default();
        let (n_clients, shards) = (self.clients.len(), self.coordinators.len());
        for c in self.clients {
            clients.merge(&c.into_stats());
        }
        for c in &self.coordinators {
            coord.merge(c.counters());
            sequencer.merge(&c.seq_stats());
        }
        let groups = self.primary.len();
        let parts = self
            .replicas
            .into_iter()
            .map(ReplicaActor::into_parts)
            .collect();
        let (engines, backups, sched, replication, durability, _, gates, adaptive) =
            assemble_replicas(parts, groups);
        sequencer.merge(&gates);
        let utilization = |used: &[u64], actors: usize| {
            used.iter().map(|&b| b as f64 / span as f64).sum::<f64>() / actors as f64
        };
        let report = SimReport {
            committed,
            user_aborts: aborts_close - aborts_open,
            retries: retries_close - retries_open,
            backoff_retries: clients.backoff_retries,
            retry_exhausted: clients.retry_exhausted,
            durability,
            committed_mp: self.committed_mp,
            throughput_tps: committed as f64 / Nanos(span).as_secs_f64(),
            latency: clients.latency,
            sched,
            coord,
            replication,
            sequencer,
            adaptive,
            simulated,
            events_processed: self.events,
            partition_utilization: utilization(&self.used[n_clients + shards + 1..], groups),
            coordinator_utilization: utilization(&self.used[n_clients..n_clients + shards], shards),
        };
        let backups = (!backups.is_empty()).then_some(backups);
        (report, self.workload.into_inner(), engines, backups)
    }

    /// Inject a fault into the durable log of partition `p`'s initial
    /// primary (durability runs only): torn tail, stalled syncs, or failing
    /// appends.
    pub fn set_log_fault(&mut self, p: PartitionId, fault: FaultMode) {
        assert!(self.cfg.system.durability.is_some(), "durability is on");
        let log = &self.logs[self.replica_at(p, 0)];
        log.lock().expect("log mutex poisoned").fault = fault;
    }

    /// Crash-point harness: run normally until the `crash_at`-th commit
    /// record (counted globally across partitions) is appended, then kill
    /// the whole partition group at the end of that step — what the step
    /// produced is never sent, every in-flight message (including
    /// unreleased results) is lost, and only the durable logs survive. Returns what a recovery (and its oracle)
    /// needs: the per-partition crash images, the durable watermarks, the
    /// full pre-crash commit history, and the set of results that were
    /// actually delivered to clients.
    ///
    /// Deterministic: the same config and seed crash at the same state
    /// for every `crash_at`, so a sweep over k = 1..N exercises every
    /// commit boundary.
    pub fn run_to_crash(mut self, crash_at: u64) -> CrashHarvest<W::Engine> {
        assert!(
            self.cfg.system.durability.is_some(),
            "run_to_crash requires SystemConfig::durability"
        );
        self.crash_at = crash_at;
        self.event_loop();
        let appended = self.appended();
        let mut harvest = CrashHarvest {
            crashed: appended >= crash_at,
            images: Vec::new(),
            durable: Vec::new(),
            history: Vec::new(),
            acked: self.acked,
            appended,
        };
        for log in self.logs.iter().step_by(self.slots) {
            let mut log = log.lock().expect("log mutex poisoned");
            harvest.images.push(log.crash_image());
            harvest.durable.push(log.durable());
            let (records, _) = decode_frames(&log.full_image());
            let decode = |r: &Vec<u8>| decode_exact(r).expect("the log holds commit records");
            harvest.history.push(records.iter().map(decode).collect());
        }
        harvest
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
    /// Per partition: every commit record appended pre-crash, in order,
    /// decoded from the full log image (the oracle's reference for what
    /// each durable prefix replays to).
    pub history: Vec<Vec<CommitRecord<E::Fragment>>>,
    /// Transactions whose committed results were delivered to clients
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
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
    B: Fn(PartitionId) -> W::Engine,
{
    Simulation::new(cfg, workload, build).run().0
}
