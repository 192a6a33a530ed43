//! The virtual-time driver: one thread, one heap, the production actors —
//! [`BackendChoice::Sim`].
//!
//! Reproduces the paper's testbed — single-threaded partitions, a central
//! coordinator, closed-loop clients, a switched network — on a virtual
//! clock. **Only time is modeled**: the driver builds its actors with
//! [`build_actors`], the one wiring the reactor uses too, and steps the
//! same `ClientActor` / `CoordinatorActor` / `MembershipActor` /
//! `ReplicaActor` objects the reactor steps. Every transaction
//! really executes against real storage, every `Promote`, `RoutingApplied`
//! fence, `Commit` / `CommitAck`, `DecisionAck` and durability hold is the
//! live runtime's, so correctness properties (serializability, 2PC
//! atomicity, no acked commit lost, failover convergence) are checked on
//! exactly the code the benchmarks measure. The run takes the same
//! [`RuntimeConfig`] and hands back the same [`RuntimeReport`] as the live
//! driver, with [`RuntimeReport::virtual_time`] filled in.
//!
//! # Three timing rules
//!
//! Each actor has a busy-until clock, and each `step` returns the virtual
//! CPU it cost (from the calibrated [`hcc_common::CostModel`]):
//!
//! 1. a message — or the log device's answer to a sync — arriving at `t`
//!    starts at `max(t, busy)`;
//! 2. the actor is busy for the virtual CPU its `step` returns;
//! 3. every message it emitted departs then and arrives `one_way` later
//!    (mail to oneself — a client's own 2PC driver reporting its result —
//!    arrives at once), ties broken by push order.
//!
//! Constant latency, monotone departures and the tie-break keep every link
//! FIFO and delivery causal, which the speculation protocol relies on.
//! [`ActorId::Partition`] resolves to the group's current primary on
//! delivery, and the membership actor's `Promoted` flip is mail like any
//! other, so it lands right behind the `Promote` it follows.
//!
//! # Five driver-side models
//!
//! What the actors leave to their driver, this one models *around* the
//! production call, never instead of it:
//!
//! * **sync latency** — a logging node left with unsynced records and no
//!   sync at the device has one issued; the production `on_drained` runs
//!   `sync_latency` later, once the node is between steps (rule 1), and
//!   covers whatever was appended by then;
//! * **rejoin delay** — the membership actor's `Rejoin` (control mail,
//!   like the `Promoted` flip) reaches the failed node the plan's
//!   `rejoin_delay` after a normal hop would have; a [`FailAt::Time`]
//!   crash is a [`Msg::Crash`] on the heap at the chosen virtual time;
//! * **network split** — [`NetworkModel::split`] is the network dropping
//!   mail for the partition, and the coordinator's stall expiry doing the
//!   rest;
//! * **crash counter** — [`Simulation::run_to_crash`] counts appends
//!   across the injected logs and stops the world after the step that
//!   lands the k-th (whole-cluster power loss, not a primary kill);
//! * **preempted sender** — with [`Simulation::preempt_senders`], one step
//!   in four is cut partway through its mail (in the reactor's publish
//!   order) and the rest of the mail leaves up to 500 µs later, the sender
//!   stepping nothing meanwhile: the interleavings of a thread descheduled
//!   mid-route. Departures stay monotone, so every link stays FIFO and
//!   delivery causal, as in the reactor, where a send is an enqueue at the
//!   destination. Off by default, and then it draws nothing.
//!
//! Ticks follow [`TickPlan`]: an actor is ticked on the plan's period for
//! as long as it has work a tick could matter to (clients at their exact
//! backoff deadline), so the heap drains when the work does.
//!
//! With `BackendChoice::Sim { shadow: true }` each partition keeps a
//! backup that costs no virtual time — a real `ReplicaActor` co-located
//! with its primary — and comparing the two at the end doubles as a
//! serializability check: the backup *is* the serial execution in commit
//! order.
//!
//! [`NetworkModel::split`]: hcc_common::NetworkModel::split

use crate::actors::{
    ActorId, ClientActor, ClientCtx, CoordinatorActor, MembershipActor, Msg, OutMsg, ReplicaActor,
    RunControl,
};
use crate::{
    build_actors, Actors, BackendChoice, Harvest, RunMode, RuntimeConfig, RuntimeReport, TickPlan,
    VirtualTime,
};
use hcc_common::codec::decode_exact;
use hcc_common::{
    ClientId, CommitRecord, FailAt, FailurePlan, Nanos, PartitionId, SplitMix64, TxnId, TxnResult,
};
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::{decode_frames, DurableLog, FaultMode, MemLog};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex};

/// The preempted-sender model: one step in this many is descheduled partway
/// through sending its mail …
const PREEMPT_ONE_IN: u64 = 4;
/// … for up to this long (a thread descheduled for a few scheduler quanta).
const PREEMPT_MAX: Nanos = Nanos(500_000);

/// What a heap entry brings its addressee.
enum Due<E: ExecutionEngine> {
    /// A message an actor sent, or one of the driver's own: a tick its
    /// timers raised, the failure plan's crash.
    Mail(Msg<E>),
    /// The log device answers the sync issued `sync_latency` ago.
    Synced,
}

/// One run of the system under a workload: the production actors
/// ([`build_actors`]) stepped on a virtual clock. Deterministic given the
/// config and workload seed. [`run`](crate::run) drives one to the end;
/// this handle is for what only virtual time can do besides — a faulty
/// log device, a whole-cluster crash, the workload handed back.
pub struct Simulation<W: RequestGenerator> {
    cfg: RuntimeConfig,
    one_way: Nanos,
    rejoin_delay: Nanos,
    split: Option<(Nanos, PartitionId)>,
    /// The generator, for clients of one that does not split into
    /// per-client shares; the rest hold their own.
    workload: Mutex<W>,
    ctl: RunControl,
    clients: Vec<ClientActor<W>>,
    coordinators: Vec<CoordinatorActor<W::Engine>>,
    membership: MembershipActor,
    /// (group, slot) order; `slots` per group.
    replicas: Vec<ReplicaActor<W::Engine>>,
    slots: usize,
    /// The backups share their primaries' processes (the `shadow` of
    /// [`BackendChoice::Sim`]): mail inside a group is stepped at once, at
    /// no cost.
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
    /// The preempted-sender model's draws (off: `None`).
    preempt: Option<SplitMix64>,

    // Observation.
    /// Measurement window in virtual time (all of it for fixed work).
    window: (Nanos, Nanos),
    /// Committed results delivered to clients.
    acked: Vec<TxnId>,
    events: u64,
    /// Every message sent, as (sender, addressee, heap key).
    #[cfg(test)]
    sent: Vec<(ActorId, ActorId, (Nanos, u64))>,
}

impl<W: RequestGenerator> Simulation<W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    /// Build a simulation of a [`BackendChoice::Sim`] config:
    /// `build_engine` constructs each node's loaded engine (primaries and
    /// backups).
    pub fn new(
        cfg: RuntimeConfig,
        mut workload: W,
        build_engine: impl Fn(PartitionId) -> W::Engine,
    ) -> Self {
        let BackendChoice::Sim { shadow } = cfg.backend else {
            panic!("a Simulation runs BackendChoice::Sim, not {}", cfg.backend);
        };
        let mut system = cfg.system.clone();
        let colocated = shadow && system.replication <= 1;
        if colocated {
            system.replication = 2;
        }
        let mut logs = Vec::new();
        let Actors {
            clients,
            coordinators,
            membership,
            replicas,
        } = build_actors(
            &system,
            cfg.mode,
            cfg.failure,
            &mut workload,
            build_engine,
            || {
                let log = Arc::new(StdMutex::new(MemLog::new()));
                logs.push(log.clone());
                Box::new(log)
            },
        );
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
            rejoin_delay: cfg.failure.map_or(Nanos::ZERO, |f| f.rejoin_delay),
            split: system.network.split,
            workload: Mutex::new(workload),
            ctl: RunControl::new(clients.len(), cfg.mode),
            slots: system.replication as usize,
            colocated,
            primary: vec![0; system.partitions as usize],
            plan: TickPlan::new(&system),
            heap: BTreeMap::new(),
            seq: 0,
            now: Nanos::ZERO,
            busy: vec![Nanos::ZERO; actors],
            used: vec![0; actors],
            out: Vec::new(),
            inline: Vec::new(),
            syncing: vec![false; replicas.len()],
            ticking: vec![false; actors],
            preempt: None,
            logs,
            crash_at: u64::MAX,
            window,
            acked: Vec::new(),
            events: 0,
            #[cfg(test)]
            sent: Vec::new(),
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

    /// Kick off the clients and drain the heap — to completion, or until
    /// the crash harness kills the group.
    fn event_loop(&mut self) {
        for c in 0..self.clients.len() {
            let to = ActorId::Client(ClientId(c as u32));
            self.push(Nanos::ZERO, to, Due::Mail(Msg::Start));
        }
        if let Some(FailurePlan {
            partition,
            at: FailAt::Time(t),
            ..
        }) = self.cfg.failure
        {
            self.push(t, ActorId::Partition(partition), Due::Mail(Msg::Crash));
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
            // The measurement protocol on the virtual clock: the window
            // opens with the first event at or after `open`; the first at
            // or after `close` shuts it and stops the clients, which finish
            // their transaction in flight and retire (the run drains so
            // final states are comparable).
            let ctl = &self.ctl;
            let stopped = ctl.stop.load(Ordering::Relaxed);
            if !stopped && at >= close {
                ctl.window_open.store(false, Ordering::SeqCst);
                ctl.stop.store(true, Ordering::SeqCst);
            } else if !stopped && at >= open && !ctl.window_open.load(Ordering::Relaxed) {
                ctl.window_open.store(true, Ordering::SeqCst);
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
                // The network drops mail for a split-off partition.
                if matches!(self.split, Some((when, dead)) if dead == p && at >= when) {
                    return;
                }
                self.clients.len() + shards + 1 + self.replica_at(p, s)
            }
            // Mail for the driver itself: the routing flip.
            ActorId::Control => {
                if let Due::Mail(Msg::Promoted { partition, slot }) = due {
                    self.primary[partition.as_usize()] = slot;
                }
                return;
            }
            ActorId::Partition(_) => unreachable!("resolved above"),
        };
        // The device's answer costs no CPU, but the node takes it between
        // steps, as the reactor runs `on_drained` on the node's own worker:
        // what it releases leaves after the mail of the step before it.
        let start = at.max(self.busy[i]);
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
            _ => unreachable!("the device answers replicas"),
        };
        let end = start + cpu;
        let (open, close) = self.window;
        self.used[i] += end.min(close).0.saturating_sub(start.max(open).0);
        let mut out = std::mem::take(&mut self.out);
        let (cut, stall) = self.preemption(&mut out);
        // A descheduled sender steps nothing until it is back.
        self.busy[i] = self.busy[i].max(end + stall);
        // Every message leaves when the step ends (or, from the cut on, when
        // the preempted sender is back) and crosses the network once —
        // except mail to oneself, and the `Rejoin` that waits out the failed
        // node's downtime.
        for (k, OutMsg { dest, msg }) in out.drain(..).enumerate() {
            let leaves = if k < cut { end } else { end + stall };
            let (dest, delay) = match (dest, &msg) {
                _ if dest == to => (dest, Nanos::ZERO),
                (
                    ActorId::Control,
                    &Msg::Rejoin {
                        partition, slot, ..
                    },
                ) => (
                    ActorId::Replica(partition, slot),
                    self.one_way + self.rejoin_delay,
                ),
                _ => (dest, self.one_way),
            };
            self.push(leaves + delay, dest, Due::Mail(msg));
            #[cfg(test)]
            self.sent.push((to, dest, (leaves + delay, self.seq)));
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

    /// The preempted-sender model's draw for one step's mail: where the
    /// sender is cut off, and for how long. With the model on, `out` is put
    /// in the reactor's publish order first — worker-bound mail, then
    /// mailbox-bound mail (coordinator shards, membership), each in program
    /// order — since that is the order in which a preempted live sender's
    /// mail becomes visible. Off, or with nothing to send, it draws nothing
    /// and cuts nowhere.
    fn preemption(&mut self, out: &mut [OutMsg<W::Engine>]) -> (usize, Nanos) {
        let Some(rng) = self.preempt.as_mut().filter(|_| !out.is_empty()) else {
            return (out.len(), Nanos::ZERO);
        };
        out.sort_by_key(|m| matches!(m.dest, ActorId::Coordinator(_) | ActorId::Membership));
        if rng.next_u64() % PREEMPT_ONE_IN != 0 {
            return (out.len(), Nanos::ZERO);
        }
        let cut = rng.range_inclusive(0, out.len() as u64 - 1) as usize;
        (cut, Nanos(rng.range_inclusive(1, PREEMPT_MAX.0)))
    }

    fn step_client(&mut self, c: ClientId, msg: Msg<W::Engine>, now: Nanos) -> Nanos {
        if let Msg::Result {
            txn,
            result: TxnResult::Committed(_),
        } = &msg
        {
            // A committed result is always final, and it is only ever
            // delivered once every gate (replication, durability) let it by.
            self.acked.push(*txn);
        }
        let client = &mut self.clients[c.as_usize()];
        let parked = client.retry_wake();
        let ctx = ClientCtx {
            workload: &self.workload,
            ctl: &self.ctl,
        };
        let cpu = client.step(msg, now, &ctx, &mut self.out);
        // A backoff the step started ends with a tick at its exact deadline.
        if let (None, Some(wake)) = (parked, client.retry_wake()) {
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
                // production `on_drained` runs once the device has answered
                // and the node is between steps, so the sync covers what
                // was appended by then.
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
    /// drain, and report; hands back the workload too — what a generator
    /// that does not split recorded of the run (one that splits left its
    /// clients' state in their shares).
    pub fn run(mut self) -> (RuntimeReport<W::Engine>, W) {
        self.event_loop();
        if cfg!(debug_assertions) {
            for (r, node) in self.replicas.iter().enumerate() {
                // A split-off partition keeps whatever was in flight.
                let group = r / self.slots;
                let dead = matches!(self.split, Some((_, p)) if p.as_usize() == group);
                assert!(
                    dead || node.is_idle(),
                    "P{group} scheduler not idle after drain"
                );
            }
        }
        let shards = self.coordinators.iter().map(|c| c.in_doubt());
        let unacked: usize = shards
            .chain(self.clients.iter().map(|c| c.in_doubt()))
            .sum();
        assert_eq!(unacked, 0, "drained with commits still in doubt");
        if self.cfg.failure.is_some() {
            assert!(
                self.ctl.recovery_done.load(Ordering::SeqCst),
                "injected failure never finished recovering — \
                 was the crash threshold reachable for this workload?"
            );
        }
        let (open, close) = self.window;
        let (span, simulated) = match self.cfg.mode {
            RunMode::Timed { .. } => (close.0 - open.0, close),
            RunMode::FixedRequests(_) => (self.now.0.max(1), self.now),
        };
        let (clients, shards, groups) = (
            self.clients.len(),
            self.coordinators.len(),
            self.primary.len(),
        );
        let utilization = |used: &[u64], actors: usize| {
            used.iter().map(|&b| b as f64 / span as f64).sum::<f64>() / actors as f64
        };
        let virtual_time = VirtualTime {
            simulated,
            events: self.events,
            partition_utilization: utilization(&self.used[clients + shards + 1..], groups),
            coordinator_utilization: utilization(&self.used[clients..clients + shards], shards),
        };
        let mut harvest = Harvest::new();
        for c in self.clients {
            harvest.client(&c.into_stats());
        }
        for c in &self.coordinators {
            harvest.coordinator(c);
        }
        for r in self.replicas {
            harvest.replica(r.into_parts());
        }
        let mut report = harvest.finish(&self.ctl, Nanos(span).as_secs_f64(), groups);
        report.virtual_time = Some(virtual_time);
        (report, self.workload.into_inner())
    }

    /// Inject a fault into the durable log of partition `p`'s initial
    /// primary (durability runs only): torn tail, stalled syncs, or failing
    /// appends.
    pub fn set_log_fault(&mut self, p: PartitionId, fault: FaultMode) {
        assert!(self.cfg.system.durability.is_some(), "durability is on");
        let log = &self.logs[self.replica_at(p, 0)];
        log.lock().expect("log mutex poisoned").fault = fault;
    }

    /// Turn on the preempted-sender model (module docs), its draws taken
    /// from `seed`: one step in four, the stepping actor is descheduled at a
    /// cut uniform over that step's mail for up to 500 µs — what a reactor
    /// worker preempted mid-publish produces.
    pub fn preempt_senders(&mut self, seed: u64) {
        self.preempt = Some(SplitMix64::new(seed));
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

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::{DurabilityConfig, Scheme, SystemConfig};
    use hcc_workloads::micro::{MicroConfig, MicroWorkload};

    /// Every message of a short failover run (P1's primary killed at 1 ms;
    /// two sequenced shards, 50 % multi-partition), with a command log if
    /// `durable`, senders preempted from `seed` if given.
    fn failover_mail(durable: bool, seed: Option<u64>) -> Vec<(ActorId, ActorId, (Nanos, u64))> {
        let micro = MicroConfig {
            partitions: 2,
            clients: 6,
            mp_fraction: 0.5,
            ..Default::default()
        };
        let mut system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(6)
            .with_replication(2)
            .with_coordinators(2)
            .with_sequencing(true);
        if durable {
            system = system.with_durability(DurabilityConfig::default());
        }
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_micros(200), Nanos::from_millis(2))
            .with_failure(FailurePlan {
                partition: PartitionId(1),
                at: FailAt::Time(Nanos::from_millis(1)),
                rejoin_delay: Nanos::from_micros(100),
            });
        let builder = MicroWorkload::new(micro);
        let mut sim = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        seed.inspect(|&s| sim.preempt_senders(s));
        sim.event_loop();
        sim.sent
    }

    /// What one actor sends another is due — so stepped — in send order,
    /// with or without a command log and however the sender's steps were
    /// cut; and the membership actor's `Promote` is due ahead of the
    /// routing flip it sends after it, even when cut off between the two.
    #[test]
    fn preempted_senders_keep_links_fifo_and_promote_ahead_of_the_flip() {
        let fifo = |sent: &[(ActorId, ActorId, (Nanos, u64))], run: &str| {
            for (i, (from, to, key)) in sent.iter().enumerate() {
                let earlier = sent[..i].iter().rev().find(|m| (m.0, m.1) == (*from, *to));
                assert!(
                    earlier.is_none_or(|m| m.2 < *key),
                    "{run}: {from:?} -> {to:?}"
                );
            }
        };
        for durable in [false, true] {
            let plain = failover_mail(durable, None);
            fifo(&plain, &format!("durable {durable}"));
            let mut cut_between = 0;
            for seed in 0..64 {
                let sent = failover_mail(durable, Some(seed));
                let run = format!("durable {durable}, seed {seed}");
                assert_ne!(sent, plain, "{run}: the model moved nothing");
                fifo(&sent, &run);
                let membership = |to: ActorId| {
                    let m = sent
                        .iter()
                        .find(|m| (m.0, m.1) == (ActorId::Membership, to));
                    m.expect("one failover").2
                };
                let promote = membership(ActorId::Replica(PartitionId(1), 1));
                let flip = membership(ActorId::Control);
                assert!(promote < flip, "{run}: the flip overtook the promotion");
                cut_between += usize::from(flip.0 > promote.0);
            }
            assert!(
                cut_between > 0,
                "durable {durable}: no seed cut the membership actor between the two"
            );
        }
    }
}
