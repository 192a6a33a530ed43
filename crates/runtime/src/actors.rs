//! Backend-agnostic, poll-driven actor state machines.
//!
//! The system is four kinds of actor — clients, coordinator shards, the
//! membership authority and replicas — wrapped around the
//! runtime-agnostic cores from `hcc-core`. Every actor exposes a
//! non-blocking [`step`](ReplicaActor::step): consume one message, emit
//! any number of [`OutMsg`]s. Nothing here blocks, sleeps, or spawns; *how*
//! messages move between actors, and what time it is, is entirely the
//! driver's business — and there are two, both built by
//! [`crate::build_actors`] and ticked per [`crate::TickPlan`]:
//! [`crate::multiplexed`], the live one, drives every actor from a small
//! worker pool, and [`crate::sim`] steps them single-threaded off a
//! virtual-time heap, with senders preempted mid-publish if asked.
//!
//! # The returned `Nanos`
//!
//! `now` is an argument of every `step`, and every `step` returns the
//! **virtual CPU** it cost: what the cores charged for the work under the
//! calibrated Table-2 [`CostModel`] (a partition's fragment execution,
//! undo, lock overhead; a coordinator's or a client-side 2PC driver's
//! per-message cost; zero for replay, role changes and bookkeeping, which
//! the model does not price). The live drivers read the wall clock and
//! ignore the number; the simulator advances the actor's busy-until clock
//! by it, which is all it takes for the simulator to run this code rather
//! than a copy of it.
//!
//! # Replica groups, failover, recovery
//!
//! Each partition is a *replica group* of `replication` physical nodes:
//! slot 0 starts as the primary, slots 1.. as backups replaying the
//! primary's commit-order log through the shared
//! [`hcc_core::replica::ReplicaCore`] (paper §3.2). A [`ReplicaActor`]
//! owns one node and changes [`Role`] over its lifetime:
//!
//! * **Primary** — the scheme's scheduler + engine, shipping a
//!   [`CommitRecord`] per commit to every backup. Its
//!   [`CommitGate`] holds each committed single-partition result and each
//!   2PC decision ack until the record is on every backup (§2.2: a
//!   transaction commits once it is on `k` replicas) and in the durable
//!   log, when there is one.
//! * **Backup** — sequence-checked replay; every applied record is acked
//!   back to whichever slot shipped it. Replay failures are *propagated*
//!   into [`ReplicationCounters`] and surfaced in the run report, never
//!   swallowed.
//! * **Failed** — a crashed primary (fault injection, §3.3's failure
//!   model). Bounces everything with
//!   [`AbortReason::PartitionFailed`] — the moral equivalent of the
//!   client's connection resetting — so closed-loop clients transparently
//!   retry against the new primary.
//! * **Recovering** — the failed node rejoining: it asks the new primary
//!   for a state snapshot, installs it at the snapshot's log position,
//!   and returns as a backup that catches up from the log (§3.3) while
//!   the group keeps processing.
//!
//! The membership authority is the dedicated control-plane
//! [`MembershipActor`] (wrapping `hcc_core::MembershipCore`): on
//! `PrimaryFailed` it bumps the group's epoch, promotes the first backup,
//! flips the backends' routing table (via a [`ActorId::Control`] message),
//! tells the dead node to rejoin (through the same channel: the driver
//! holds the [`Msg::Rejoin`] for the plan's `rejoin_delay`), and fans an
//! epoch-stamped
//! [`Msg::RoutingUpdate`] out to **every coordinator shard**, each of
//! which aborts its own in-flight transactions touching the dead node.
//! A shard learns of the failover some time *after* the routing table has
//! flipped, and until then what it sends the group lands on the promoted
//! primary although the shard's failover bookkeeping will file it under
//! "sent to the dead node". The promoted primary therefore starts
//! *fenced*: it bounces every fragment of a shard, exactly as the dead
//! node would, until that shard's [`Msg::RoutingApplied`] marker arrives
//! on the same FIFO link — so what a shard believes died with the old
//! primary really did. (Without the fence a shard that is slow to hear
//! re-delivers, as in-doubt, commits the promoted primary has itself just
//! processed; the duplicate waits for a decision nobody will send, and the
//! partition stalls behind it.)
//! Failure *detection* is modeled as reliable and immediate — the dying
//! node's last act is notifying the membership actor — which keeps the
//! kill → promote → recover scenario deterministic.
//!
//! Coordinators are sharded ([`ActorId::Coordinator`] carries a
//! [`CoordinatorId`]): clients are statically partitioned across shards
//! and each shard runs its own `Coordinator` core. In failover runs the
//! shards also track the 2PC in-doubt window: primaries acknowledge
//! commit decisions ([`Msg::DecisionAck`]), and a routing update makes
//! the owning shard re-deliver any unacknowledged commit's fragments to
//! the promoted primary — closing the window instead of documenting it.
//!
//! One failover per group per run is supported (the `FailurePlan` is
//! one-shot).

use crate::RunMode;
use hcc_common::codec::LogEncode;
use hcc_common::stats::SequencerStats;
use hcc_common::stats::{
    AdaptiveStats, DurabilityCounters, ReplicationCounters, SchedulerCounters,
};
use hcc_common::{
    AbortReason, CachePadded, ClientId, CommitRecord, CoordinatorId, CoordinatorRef, CostModel,
    Decision, DurabilityConfig, FragmentResponse, FragmentTask, Nanos, PartitionId, SchemeSwitch,
    SystemConfig, TxnId, TxnResult,
};
use hcc_core::client::{ClientCore, ClientStats, NextAction, PendingRequest};
use hcc_core::coordinator::{stamp_attempt, CoordOut, Coordinator, PeerNote};
use hcc_core::group_commit::{FlushDecision, GroupCommit};
use hcc_core::membership::MembershipCore;
use hcc_core::replica::{
    failover_bounce, CommitGate, FailoverBounce, Logged, Owed, ReplicaCore, ReplicationSession,
};
use hcc_core::sequencer::{
    broadcast_dests, Admit, ClosedEpoch, EpochLog, EpochLogDest, PartitionSequencer,
    ShardSequencer, EPOCH_BATCH,
};
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    make_scheduler_send, ExecutionEngine, Outbox, PartitionOut, Procedure, Request,
    RequestGenerator, Scheduler,
};
use hcc_storage::DurableLog;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Logical address of an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorId {
    Client(ClientId),
    /// One central coordinator shard.
    Coordinator(CoordinatorId),
    /// The control-plane membership authority.
    Membership,
    /// The *current primary* of a replica group. Backends resolve this
    /// through their membership table, so a promotion transparently
    /// redirects partition traffic to the promoted node.
    Partition(PartitionId),
    /// A physical replica node: (group, slot). Slot 0 is the initial
    /// primary, slots `1..replication` the initial backups.
    Replica(PartitionId, u32),
    /// Backend-internal control channel: the router interprets the
    /// message (membership flip) instead of delivering it to an actor.
    Control,
}

/// Every message the runtime actors exchange, in one enum so backends
/// route a single type. Which variants an actor accepts is part of its
/// `step` contract (a misrouted message is a driver bug, not a protocol
/// state).
pub enum Msg<E: ExecutionEngine> {
    /// Kick a client into issuing its first request.
    Start,
    /// Final result of a client's in-flight transaction.
    Result {
        txn: TxnId,
        result: TxnResult<E::Output>,
    },
    /// Fragment response routed to a client-coordinator (locking scheme).
    FragResponse(FragmentResponse<E::Output>),
    /// A unit of work for a partition.
    Fragment(FragmentTask<E::Fragment>),
    /// A two-phase-commit decision for a partition. The second field is
    /// the coordinator (central shard or client driver) expecting a
    /// [`Msg::DecisionAck`] for a processed commit — in-doubt tracking
    /// and/or durable result release; `None` otherwise.
    Decision(Decision, Option<CoordinatorRef>),
    /// Periodic maintenance (lock-timeout scans under the locking scheme).
    Tick,
    /// A multi-partition invocation for the central coordinator.
    Invoke {
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<E::Fragment, E::Output>>,
        can_abort: bool,
    },
    /// A fragment response for the central coordinator.
    Response(FragmentResponse<E::Output>),
    /// A commit-order log record, primary → backup. `from_slot` tells the
    /// backup where to send its ack (the shipper may be a promoted node).
    Commit {
        from_slot: u32,
        record: CommitRecord<E::Fragment>,
    },
    /// Cumulative replay acknowledgement, backup → primary.
    CommitAck { slot: u32, seq: u64 },
    /// Driver → a group's primary: die now (a [`FailAt::Time`] crash,
    /// injected on the driver's clock).
    ///
    /// [`FailAt::Time`]: hcc_common::FailAt::Time
    Crash,
    /// A dying primary's last gasp, to the membership actor (stands in
    /// for the failure detector, keeping the scenario deterministic).
    PrimaryFailed { partition: PartitionId },
    /// Membership → every coordinator shard: the partition failed over to
    /// a promoted backup under this epoch. Each shard aborts its own
    /// in-flight transactions touching it and re-delivers unacknowledged
    /// commits.
    RoutingUpdate { partition: PartitionId, epoch: u32 },
    /// Coordinator shard → promoted primary, first thing on a
    /// [`Msg::RoutingUpdate`]: everything this shard sent the group before
    /// this marker was addressed to the dead node (the shard had not heard
    /// of the failover), everything after it to the promoted one. Lifts the
    /// promoted primary's fence on the shard.
    RoutingApplied { shard: CoordinatorId },
    /// Primary → coordinator (shard or client driver): the commit decision
    /// for `txn` was processed and its record is on every backup and in the
    /// durable log (the [`CommitGate`]'s rule, the same one a
    /// single-partition result waits for) — the transaction leaves the 2PC
    /// in-doubt window. `logged` is false when durability is on and the
    /// record is not in the durable log — its append failed, or the stall
    /// guard abandoned its batch: the ack still counts (the chain is not
    /// wedged) but the held result is released as `LogStalled`.
    DecisionAck {
        txn: TxnId,
        partition: PartitionId,
        logged: bool,
    },
    /// Coordinator → backup: you are the group's primary now.
    Promote { epoch: u32 },
    /// Membership → failed node (`slot` of group `partition`), via the
    /// driver's [`ActorId::Control`] channel, which holds it for the
    /// failure plan's `rejoin_delay`: rejoin the group as a backup by
    /// copying state from the new primary (§3.3).
    Rejoin {
        partition: PartitionId,
        slot: u32,
        epoch: u32,
        primary_slot: u32,
    },
    /// Recovering node → new primary: send me your committed state.
    FetchState { requester_slot: u32 },
    /// New primary → recovering node: committed state as of log position
    /// `seq`. Records `> seq` follow on the same FIFO link.
    Snapshot { engine: Box<E>, seq: u64 },
    /// Backend control (dest [`ActorId::Control`]): group `partition` now
    /// answers to the given slot — flip the routing table.
    Promoted { partition: PartitionId, slot: u32 },
    /// A closed sequencing epoch log: shard → every partition (merge
    /// input) and every peer shard (cascade-close input). Sequencing runs
    /// only.
    EpochLog(EpochLog),
    /// A peer shard's commit/abort decision for one of its transactions
    /// (cross-shard dependency settling under sequencing).
    PeerNote(PeerNote),
}

/// An outbound message with its destination, as emitted by `step`.
pub struct OutMsg<E: ExecutionEngine> {
    pub dest: ActorId,
    pub msg: Msg<E>,
}

/// Run-wide control state shared between the driver and the actors: the
/// measurement protocol (stop flag, measurement window, in-window outcome
/// counters), the count of clients still running, and the failover gate
/// (set once the injected failure's recovery completes, so drivers can
/// drain the kill → promote → recover chain before shutdown).
pub struct RunControl {
    /// Clients finish their in-flight transaction, then retire.
    pub stop: AtomicBool,
    /// True during the measurement window: from the start of a fixed-work
    /// run, between warm-up and stop in a timed one.
    pub window_open: AtomicBool,
    /// Per shard, the outcomes observed while the window was open and a
    /// progress beacon bumped on every final outcome; sharded by client id
    /// so clients stepped on different workers never contend on (or
    /// false-share) a single counter line. Read via
    /// [`in_window`](Self::in_window) after the window closes, and via
    /// [`progress`](Self::progress) by the drivers' hang watchdog.
    outcome_shards: Vec<CachePadded<OutcomeShard>>,
    /// Clients that have not yet retired. Padded: decremented from worker
    /// threads while the driver spin-reads it.
    pub live_clients: CachePadded<AtomicUsize>,
    /// Set by the recovering replica when its snapshot is installed.
    pub recovery_done: AtomicBool,
    /// Clients currently parked in a retry backoff and waiting for a
    /// [`Msg::Tick`]. Tick sources consult this so an idle system sends no
    /// client ticks at all (the multiplexed workers stay parked).
    backoff_waiters: CachePadded<AtomicUsize>,
}

/// What a client's result was, as the measurement window counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A single-partition request committed.
    Committed,
    /// A multi-partition request committed.
    CommittedMp,
    /// A final abort: the user's, or retries exhausted.
    UserAborted,
    /// A scheduling or infrastructure abort the client retries.
    Retried,
}

/// One stripe of [`RunControl`]'s outcome counters.
#[derive(Default)]
struct OutcomeShard {
    /// In-window count per [`Outcome`], indexed by its discriminant.
    counts: [AtomicU64; 4],
    beacon: AtomicU64,
}

/// Shard count for the in-window outcome counters: enough stripes that
/// clients on different workers rarely collide, small enough that the
/// end-of-run sum is trivial. Must be a power of two.
const OUTCOME_SHARDS: usize = 16;

impl RunControl {
    /// The control block of a run in `mode` with `clients` clients: a
    /// fixed-work run's window is open from the start.
    pub fn new(clients: usize, mode: RunMode) -> Self {
        RunControl {
            stop: AtomicBool::new(false),
            window_open: AtomicBool::new(matches!(mode, RunMode::FixedRequests(_))),
            outcome_shards: (0..OUTCOME_SHARDS)
                .map(|_| CachePadded::new(OutcomeShard::default()))
                .collect(),
            live_clients: CachePadded::new(AtomicUsize::new(clients)),
            recovery_done: AtomicBool::new(false),
            backoff_waiters: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// `client` saw a result: count it if the window was open when it
    /// arrived, and bump the progress beacon if it is final. The beacon is
    /// a plain load and store, not an RMW — two clients of one shard may
    /// lose an update, which still leaves the value changed, and a change
    /// is all the watchdog reads from it.
    pub fn note_outcome(&self, client: ClientId, outcome: Outcome, in_window: bool) {
        let shard = &self.outcome_shards[client.as_usize() & (OUTCOME_SHARDS - 1)];
        if outcome != Outcome::Retried {
            let beacon = shard.beacon.load(Ordering::Relaxed);
            shard
                .beacon
                .store(beacon.wrapping_add(1), Ordering::Relaxed);
        }
        if in_window {
            shard.counts[outcome as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many results of this kind arrived while the window was open
    /// (sums the shards; call only after the window has closed and clients
    /// have quiesced).
    pub fn in_window(&self, outcome: Outcome) -> u64 {
        let count =
            |s: &CachePadded<OutcomeShard>| s.counts[outcome as usize].load(Ordering::SeqCst);
        self.outcome_shards.iter().map(count).sum()
    }

    /// Sum of the progress beacons: stands still only while no client
    /// reaches a final outcome. Not a count (see
    /// [`note_outcome`](Self::note_outcome)).
    pub fn progress(&self) -> u64 {
        self.outcome_shards.iter().fold(0, |sum, s| {
            sum.wrapping_add(s.beacon.load(Ordering::Relaxed))
        })
    }

    /// A client entered a retry backoff and needs future ticks.
    pub fn backoff_started(&self) {
        self.backoff_waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// A client left its retry backoff.
    pub fn backoff_finished(&self) {
        self.backoff_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// How many clients are parked in a backoff right now.
    pub fn backoff_waiters(&self) -> usize {
        self.backoff_waiters.load(Ordering::SeqCst)
    }
}

/// What a client actor's `step` needs besides the message: the run
/// control block, and the shared generator behind its lock — the fallback
/// for a generator that does not split into per-client shares
/// ([`RequestGenerator::for_client`]); a client holding its own share
/// never touches it.
pub struct ClientCtx<'a, W> {
    pub workload: &'a Mutex<W>,
    pub ctl: &'a RunControl,
}

/// Route one coordinator-core output to its destination actor.
fn push_coord_out<E: ExecutionEngine>(
    o: CoordOut<E::Fragment, E::Output>,
    out: &mut Vec<OutMsg<E>>,
) {
    let (dest, msg) = match o {
        CoordOut::Fragment(p, task) => (ActorId::Partition(p), Msg::Fragment(task)),
        CoordOut::Decision(p, d, ack_to) => (ActorId::Partition(p), Msg::Decision(d, ack_to)),
        CoordOut::ClientResult {
            client,
            txn,
            result,
        } => (ActorId::Client(client), Msg::Result { txn, result }),
        CoordOut::PeerNote(k, note) => (ActorId::Coordinator(k), Msg::PeerNote(note)),
        CoordOut::EpochLog(dest, log) => match dest {
            EpochLogDest::Partition(p) => (ActorId::Partition(p), Msg::EpochLog(log)),
            EpochLogDest::Shard(k) => (ActorId::Coordinator(k), Msg::EpochLog(log)),
        },
    };
    out.push(OutMsg { dest, msg });
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A closed-loop client (paper §5) as a poll-driven state machine: issue
/// one request, await its final result, issue the next. Under the locking
/// scheme the client runs its own two-phase commit through [`TxnDriver`]
/// (§4.3), so fragment responses also arrive here.
pub struct ClientActor<W: RequestGenerator> {
    core: ClientCore,
    /// This client's share of the generator; `None` draws from the shared
    /// one in [`ClientCtx`] instead.
    generator: Option<W>,
    driver:
        TxnDriver<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    pending: Option<
        PendingRequest<
            <W::Engine as ExecutionEngine>::Fragment,
            <W::Engine as ExecutionEngine>::Output,
        >,
    >,
    current_txn: Option<TxnId>,
    submitted_at: Nanos,
    /// Deadline of a backoff wait before re-dispatching the pending
    /// request (infrastructure-abort retry). The backend wakes the actor
    /// with a [`Msg::Tick`] at or after this time.
    retry_at: Option<Nanos>,
    /// Final outcomes left before retiring (fixed-work mode); `None` runs
    /// until the control block's stop flag.
    remaining: Option<u64>,
    /// Record every latency sample (fixed-work mode) instead of only
    /// in-window ones.
    record_always: bool,
    /// Drive multi-partition transactions through this client's own
    /// [`TxnDriver`] 2PC ([`SystemConfig::client_2pc`]) instead of its
    /// coordinator shard.
    client_2pc: bool,
    /// The coordinator shard that owns this client's multi-partition
    /// transactions (static partitioning).
    coord_shard: CoordinatorId,
    done: bool,
    scratch: Vec<
        CoordOut<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>,
    >,
}

impl<W: RequestGenerator> ClientActor<W>
where
    W::Engine: 'static,
{
    pub fn new(
        id: ClientId,
        system: &SystemConfig,
        requests: Option<u64>,
        generator: Option<W>,
    ) -> Self {
        let mut driver = TxnDriver::new(system.costs, id);
        // Durable release for client-driven 2PC (locking): the driver
        // parks committed results until every participant acks — which
        // partitions do only once the commit record is durably logged.
        driver.set_hold_results(system.durability.is_some());
        ClientActor {
            core: ClientCore::with_retry(id, system.retry),
            generator,
            driver,
            pending: None,
            current_txn: None,
            submitted_at: Nanos::ZERO,
            retry_at: None,
            remaining: requests,
            record_always: requests.is_some(),
            client_2pc: system.client_2pc(),
            coord_shard: system.coordinator_of(id),
            done: false,
            scratch: Vec::new(),
        }
    }

    /// When the actor needs a [`Msg::Tick`] to finish a backoff wait
    /// (`None` when no retry is parked). The simulator turns this into a
    /// heap entry.
    pub fn retry_wake(&self) -> Option<Nanos> {
        self.retry_at
    }

    pub fn into_stats(self) -> ClientStats {
        self.core.stats
    }

    /// Consume one message. Returns the virtual CPU the step cost (nonzero
    /// only while this client drives its own 2PC).
    pub fn step(
        &mut self,
        msg: Msg<W::Engine>,
        now: Nanos,
        ctx: &ClientCtx<'_, W>,
        out: &mut Vec<OutMsg<W::Engine>>,
    ) -> Nanos {
        if self.done {
            // Shared timer threads may tick a retired client, and a crashing
            // participant may still bounce (or ack) a transaction this
            // client's driver decided long ago; a result or anything else
            // arriving here is a routing bug.
            debug_assert!(
                matches!(
                    msg,
                    Msg::Tick | Msg::FragResponse(_) | Msg::DecisionAck { .. }
                ),
                "message delivered to a retired client"
            );
            return Nanos::ZERO;
        }
        match msg {
            Msg::Start => {
                debug_assert!(self.pending.is_none());
                let id = self.core.id;
                let req = self.generate(ctx, |g| g.next_request(id));
                self.pending = Some(req.into());
                self.submitted_at = now;
                self.dispatch(now, out);
            }
            Msg::Result { txn, result } => self.handle_result(txn, result, now, ctx, out),
            Msg::Tick => {
                // Backoff wake-up: re-dispatch once the deadline passed.
                // Early or spurious ticks (shared timer threads tick
                // coarsely) are ignored; the backend keeps waking us.
                if matches!(self.retry_at, Some(at) if now >= at) {
                    self.retry_at = None;
                    ctx.ctl.backoff_finished();
                    self.dispatch(now, out);
                }
            }
            // The driver's decisions leave with this step; its result for
            // this client is mail to the client itself (`Msg::Result`, one
            // local hop), so the decisions are on their way before the next
            // request is even generated.
            Msg::FragResponse(r) => self.driver.on_response(r, &mut self.scratch),
            // Durable release (locking): a participant durably logged our
            // commit decision; the final ack releases the parked result.
            Msg::DecisionAck {
                txn,
                partition,
                logged,
            } => self
                .driver
                .on_decision_ack(txn, partition, logged, &mut self.scratch),
            _ => debug_assert!(false, "unexpected message at client {}", self.core.id),
        }
        for o in self.scratch.drain(..) {
            push_coord_out(o, out);
        }
        self.driver.take_cpu()
    }

    fn handle_result(
        &mut self,
        txn: TxnId,
        result: TxnResult<<W::Engine as ExecutionEngine>::Output>,
        now: Nanos,
        ctx: &ClientCtx<'_, W>,
        out: &mut Vec<OutMsg<W::Engine>>,
    ) {
        debug_assert_eq!(
            self.current_txn,
            Some(txn),
            "stray result at {}",
            self.core.id
        );
        self.current_txn = None;
        let in_window = ctx.ctl.window_open.load(Ordering::Relaxed);
        let record = self.record_always || in_window;
        match self
            .core
            .on_result_at(&result, self.submitted_at, now, record)
        {
            NextAction::Retry { after } => {
                ctx.ctl
                    .note_outcome(self.core.id, Outcome::Retried, in_window);
                // Fixed-work clients must drive every request to a final
                // outcome (the reproducibility contract); timed clients
                // honour the stop flag instead.
                if self.remaining.is_none() && ctx.ctl.stop.load(Ordering::Relaxed) {
                    self.retire(ctx);
                } else if after > Nanos::ZERO {
                    self.retry_at = Some(now + after);
                    ctx.ctl.backoff_started();
                } else {
                    self.dispatch(now, out);
                }
            }
            NextAction::NewRequest => {
                let mp = matches!(self.pending, Some(PendingRequest::MultiPartition { .. }));
                let outcome = match (result.is_committed(), mp) {
                    (true, false) => Outcome::Committed,
                    (true, true) => Outcome::CommittedMp,
                    (false, _) => Outcome::UserAborted,
                };
                ctx.ctl.note_outcome(self.core.id, outcome, in_window);
                let retire = match self.remaining.as_mut() {
                    Some(k) => {
                        *k -= 1;
                        *k == 0
                    }
                    None => ctx.ctl.stop.load(Ordering::Relaxed),
                };
                let (id, committed) = (self.core.id, result.is_committed());
                let next = self.generate(ctx, |g| {
                    g.on_result(id, txn, committed);
                    (!retire).then(|| g.next_request(id))
                });
                match next {
                    None => self.retire(ctx),
                    Some(req) => {
                        self.pending = Some(req.into());
                        self.submitted_at = now;
                        self.dispatch(now, out);
                    }
                }
            }
        }
    }

    /// Call this client's generator: its own share, or the shared one
    /// under its lock (the one place that lock is taken).
    fn generate<R>(&mut self, ctx: &ClientCtx<'_, W>, f: impl FnOnce(&mut W) -> R) -> R {
        match self.generator.as_mut() {
            Some(own) => f(own),
            None => f(&mut ctx.workload.lock()),
        }
    }

    fn retire(&mut self, ctx: &ClientCtx<'_, W>) {
        self.done = true;
        // A retiring client cannot leave a backoff waiter registered (it
        // retires from a result, never from inside a parked backoff) — but
        // keep the counter exact even if that invariant ever shifts.
        if self.retry_at.take().is_some() {
            ctx.ctl.backoff_finished();
        }
        ctx.ctl.live_clients.fetch_sub(1, Ordering::SeqCst);
    }

    /// Issue the pending request under a fresh transaction id.
    fn dispatch(&mut self, _now: Nanos, out: &mut Vec<OutMsg<W::Engine>>) {
        let txn = self.core.next_txn_id();
        self.current_txn = Some(txn);
        let client = self.core.id;
        match self.pending.as_ref().expect("pending request").to_request() {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => {
                out.push(OutMsg {
                    dest: ActorId::Partition(partition),
                    msg: Msg::Fragment(FragmentTask {
                        txn,
                        coordinator: CoordinatorRef::Client(client),
                        client,
                        fragment,
                        multi_partition: false,
                        last_fragment: true,
                        round: 0,
                        can_abort,
                    }),
                });
            }
            Request::MultiPartition {
                procedure,
                can_abort,
            } => match self.client_2pc {
                true => self
                    .driver
                    .begin(txn, procedure, can_abort, &mut self.scratch),
                false => {
                    out.push(OutMsg {
                        dest: ActorId::Coordinator(self.coord_shard),
                        msg: Msg::Invoke {
                            txn,
                            client,
                            procedure,
                            can_abort,
                        },
                    });
                }
            },
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// One central coordinator shard (paper §3.3) as an actor: a routing
/// shell over [`Coordinator`]. Clients are statically partitioned across
/// shards; each shard owns its own 2PC, speculation-chain, and (in
/// failover runs) in-doubt commit state. Membership authority lives in
/// [`MembershipActor`], whose routing updates this actor consumes.
pub struct CoordinatorActor<E: ExecutionEngine> {
    coord: Coordinator<E::Fragment, E::Output>,
    id: CoordinatorId,
    /// Stall expiry, driven by `Msg::Tick`: transactions pending longer
    /// than the timeout are aborted with the reason
    /// ([`coordinator_expiry`](crate::coordinator_expiry): the retryable
    /// `CrossCoordinator` breaker for distributed deadlocks across shards,
    /// or a final `RemoteAbort` when the network splits).
    expiry: Option<(Nanos, AbortReason)>,
    /// Epoch sequencer (invocation buffer + log emitter); `None` when
    /// sequencing is off. Age-boundary closes ride `Msg::Tick`.
    seq: Option<ShardSequencer<E::Fragment, E::Output>>,
    /// Broadcast geometry for the sequencer.
    partitions: u32,
    shards: u32,
    /// `CrossCoordinator` expiry aborts issued by this shard (any mode;
    /// must stay zero while sequencing is on — see [`SequencerStats`]).
    cross_coord_aborts: u64,
    scratch: Vec<CoordOut<E::Fragment, E::Output>>,
}

impl<E: ExecutionEngine> CoordinatorActor<E> {
    pub fn new(
        costs: CostModel,
        id: CoordinatorId,
        track_in_doubt: bool,
        hold_results: bool,
        expiry: Option<(Nanos, AbortReason)>,
    ) -> Self {
        let mut coord = Coordinator::shard(costs, id, track_in_doubt);
        coord.set_hold_results(hold_results);
        CoordinatorActor {
            coord,
            id,
            expiry,
            seq: None,
            partitions: 0,
            shards: 1,
            cross_coord_aborts: 0,
            scratch: Vec::new(),
        }
    }

    /// Turn on epoch sequencing for this shard (call before the run
    /// starts; backends do this when `SystemConfig::sequencing_active()`).
    /// With peer shards, also enables the decision broadcast that lets
    /// speculation chains span shards.
    pub fn enable_sequencing(&mut self, system: &SystemConfig) {
        debug_assert!(system.sequencing_active());
        let shards = system.coordinators.max(1);
        self.partitions = system.partitions;
        self.shards = shards;
        self.seq = Some(ShardSequencer::new(self.id, EPOCH_BATCH));
        if shards > 1 {
            let peers = (0..shards)
                .filter(|&j| j != self.id.0)
                .map(CoordinatorId)
                .collect();
            self.coord.set_peer_broadcast(peers);
        }
    }

    /// The core's 2PC counters, for the run report.
    pub fn counters(&self) -> &hcc_core::coordinator::CoordCounters {
        &self.coord.counters
    }

    /// Commits some participant has yet to acknowledge (failover runs track
    /// them; a drained run must leave none).
    pub fn in_doubt(&self) -> usize {
        self.coord.in_doubt_len()
    }

    /// True when nothing here could need a [`Msg::Tick`]: no transaction is
    /// pending (stall expiry) and no invocation is buffered (age-close).
    pub fn is_idle(&self) -> bool {
        self.coord.pending() == 0 && self.seq.as_ref().is_none_or(|s| s.is_empty())
    }

    /// Sequencer counters for the run report (zero when sequencing is
    /// off, except `cross_coord_aborts`, counted in any mode).
    pub fn seq_stats(&self) -> SequencerStats {
        let mut stats = self
            .seq
            .as_ref()
            .map(|s| s.stats().clone())
            .unwrap_or_default();
        stats.cross_coord_aborts += self.cross_coord_aborts;
        stats
    }

    /// Emit a closed epoch: the log broadcast goes into `out` *before* the
    /// epoch's invocations dispatch fragments (also via `out`, drained
    /// from the scratch at the end of `step`), so per-mailbox FIFO lands
    /// each log ahead of the round-0 fragments it orders.
    fn emit_closed(
        &mut self,
        closed: ClosedEpoch<E::Fragment, E::Output>,
        now: Nanos,
        out: &mut Vec<OutMsg<E>>,
    ) {
        self.broadcast(&closed.log, out);
        for inv in closed.invokes {
            self.coord.on_invoke_at(
                inv.txn,
                inv.client,
                inv.procedure,
                inv.can_abort,
                now,
                &mut self.scratch,
            );
        }
    }

    /// Send `log` to every partition and every peer shard, charging the
    /// fan-out to this shard's virtual clock and message counter.
    fn broadcast(&mut self, log: &EpochLog, out: &mut Vec<OutMsg<E>>) {
        let before = out.len();
        for dest in broadcast_dests(self.partitions, self.shards, self.id) {
            let dest = match dest {
                EpochLogDest::Partition(p) => ActorId::Partition(p),
                EpochLogDest::Shard(k) => ActorId::Coordinator(k),
            };
            out.push(OutMsg {
                dest,
                msg: Msg::EpochLog(log.clone()),
            });
        }
        self.coord.charge_extra_msgs((out.len() - before) as u64);
    }

    /// Consume one message. Returns the virtual CPU the step cost.
    pub fn step(&mut self, msg: Msg<E>, now: Nanos, out: &mut Vec<OutMsg<E>>) -> Nanos {
        debug_assert!(self.scratch.is_empty());
        match msg {
            Msg::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            } => {
                if self.seq.is_some() {
                    let closed = self
                        .seq
                        .as_mut()
                        .expect("checked")
                        .push(txn, client, procedure, can_abort, now);
                    if let Some(closed) = closed {
                        self.emit_closed(closed, now, out);
                    }
                } else {
                    self.coord.on_invoke_at(
                        txn,
                        client,
                        procedure,
                        can_abort,
                        now,
                        &mut self.scratch,
                    )
                }
            }
            Msg::Response(r) => self.coord.on_response(r, &mut self.scratch),
            Msg::Tick => {
                if let Some((timeout, reason)) = self.expiry {
                    // Presumed stalled for good (a distributed deadlock
                    // across shards, or a dead participant): abort with the
                    // configured reason — §4.3's timeout resolution, applied
                    // to coordinator chains.
                    let before = self.scratch.len();
                    self.coord
                        .expire_stalled(now, timeout, reason, &mut self.scratch);
                    let expired = self.scratch[before..]
                        .iter()
                        .filter(|m| {
                            matches!(
                                m,
                                CoordOut::ClientResult {
                                    result: TxnResult::Aborted(AbortReason::CrossCoordinator),
                                    ..
                                }
                            )
                        })
                        .count() as u64;
                    self.cross_coord_aborts += expired;
                    // Backends disable expiry under sequencing; an abort
                    // here with the sequencer live is a wiring bug.
                    debug_assert!(
                        self.seq.is_none() || expired == 0,
                        "CrossCoordinator abort while sequencing is on"
                    );
                }
                if let Some(closed) = self.seq.as_mut().and_then(|seq| seq.close_if_aged(now)) {
                    self.emit_closed(closed, now, out);
                }
            }
            Msg::RoutingUpdate { partition, epoch } => {
                // The marker goes first: the re-deliveries queued below
                // must find the promoted primary's fence already down.
                out.push(OutMsg {
                    dest: ActorId::Partition(partition),
                    msg: Msg::RoutingApplied { shard: self.id },
                });
                let _aborted = self
                    .coord
                    .on_partition_failed(partition, epoch, &mut self.scratch);
                if let Some(seq) = self.seq.as_mut() {
                    // Membership changed: end the era. Buffered
                    // invocations bounce to their clients for a retry in
                    // the new era; the era-end marker tells every
                    // partition where the old era's merge stops.
                    let (marker, bounced) = seq.on_era_change();
                    self.broadcast(&marker, out);
                    for inv in bounced {
                        out.push(OutMsg {
                            dest: ActorId::Client(inv.client),
                            msg: Msg::Result {
                                txn: inv.txn,
                                result: TxnResult::Aborted(AbortReason::PartitionFailed),
                            },
                        });
                    }
                }
            }
            Msg::DecisionAck {
                txn,
                partition,
                logged,
            } => self
                .coord
                .on_decision_ack(txn, partition, logged, &mut self.scratch),
            Msg::EpochLog(log) => {
                let closed = match &mut self.seq {
                    Some(seq) => seq.on_peer_log(&log, now),
                    None => Vec::new(),
                };
                for c in closed {
                    self.emit_closed(c, now, out);
                }
            }
            Msg::PeerNote(note) => self.coord.on_peer_decision(note, &mut self.scratch),
            _ => debug_assert!(false, "unexpected message at coordinator"),
        }
        for o in self.scratch.drain(..) {
            push_coord_out(o, out);
        }
        self.coord.take_cpu()
    }
}

// ---------------------------------------------------------------------
// Membership (control plane)
// ---------------------------------------------------------------------

/// The replication control plane as an actor: the sole owner of
/// membership/epoch state (`hcc_core::MembershipCore`). On a failure
/// notification it drives the whole failover: promote the first backup,
/// flip the backends' routing table, tell the dead node to rejoin, and
/// notify every coordinator shard with an epoch-stamped routing update.
///
/// Emission order matters — the promotion must be in the new primary's
/// mailbox before the membership flip makes other actors route fragments
/// to it, before the rejoin can trigger a state fetch, and before any
/// shard can re-deliver in-doubt commits to the promoted node.
pub struct MembershipActor {
    core: MembershipCore,
    /// Coordinator shard count, for the routing-update fan-out.
    coordinators: u32,
}

impl MembershipActor {
    pub fn new(coordinators: u32) -> Self {
        MembershipActor {
            core: MembershipCore::new(),
            coordinators: coordinators.max(1),
        }
    }

    pub fn step<E: ExecutionEngine>(&mut self, msg: Msg<E>, out: &mut Vec<OutMsg<E>>) {
        match msg {
            Msg::PrimaryFailed { partition } => {
                let up = self.core.on_primary_failed(partition);
                out.push(OutMsg {
                    dest: ActorId::Replica(partition, up.new_primary_slot),
                    msg: Msg::Promote { epoch: up.epoch },
                });
                out.push(OutMsg {
                    dest: ActorId::Control,
                    msg: Msg::Promoted {
                        partition,
                        slot: up.new_primary_slot,
                    },
                });
                out.push(OutMsg {
                    dest: ActorId::Control,
                    msg: Msg::Rejoin {
                        partition,
                        slot: up.failed_slot,
                        epoch: up.epoch,
                        primary_slot: up.new_primary_slot,
                    },
                });
                for k in 0..self.coordinators {
                    out.push(OutMsg {
                        dest: ActorId::Coordinator(CoordinatorId(k)),
                        msg: Msg::RoutingUpdate {
                            partition,
                            epoch: up.epoch,
                        },
                    });
                }
            }
            _ => debug_assert!(false, "unexpected message at membership actor"),
        }
    }
}

// ---------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------

/// What a primary sends for something it owed: a result to its client, or
/// a decision ack from `group` to whoever coordinated the transaction (a
/// central shard or, for client-driven 2PC, the client's driver).
fn owed_out<E: ExecutionEngine>(
    group: PartitionId,
    owed: Owed<E::Output>,
    logged: bool,
) -> OutMsg<E> {
    match owed {
        Owed::Result {
            client,
            txn,
            result,
        } => OutMsg {
            dest: ActorId::Client(client),
            msg: Msg::Result { txn, result },
        },
        Owed::Ack { txn, to } => OutMsg {
            dest: match to {
                CoordinatorRef::Central(k) => ActorId::Coordinator(k),
                CoordinatorRef::Client(c) => ActorId::Client(c),
            },
            msg: Msg::DecisionAck {
                txn,
                partition: group,
                logged,
            },
        },
    }
}

/// The role a replica node currently plays; see the module docs.
enum Role<E: ExecutionEngine> {
    Primary {
        sched: Box<dyn Scheduler<E> + Send>,
        /// Commit-order log shipping state; `None` when replication is off.
        session: Option<ReplicationSession<E::Fragment>>,
        /// Where records ship, and the results and decision acks held
        /// until their record is on every backup and in the log.
        gate: CommitGate<E::Output>,
        /// Transactions this node applied during its backup past (empty
        /// for an initial primary): the exactly-once guard that keeps a
        /// re-delivered in-doubt commit from applying twice when its
        /// record *did* reach the backups before the crash.
        applied: hcc_common::FxHashSet<TxnId>,
    },
    Backup {
        replica: ReplicaCore,
    },
    Failed,
    Recovering,
}

/// Durable command-log state owned by a primary when
/// `SystemConfig::durability` is on.
///
/// The primary appends one framed commit record per committed transaction
/// and syncs in batches under the shared [`GroupCommit`] policy: the
/// backend calls [`ReplicaActor::on_drained`] when it has nothing more to
/// hand the node, and that closes the batch. What waits for a batch to
/// become durable waits in the primary's [`CommitGate`].
struct Durability {
    log: Box<dyn DurableLog + Send>,
    gc: GroupCommit,
    /// Scratch: the commit record being appended, encoded. Reused so a
    /// commit does not grow a fresh buffer through five reallocations.
    encode_buf: Vec<u8>,
}

impl Durability {
    fn new(cfg: DurabilityConfig, log: Box<dyn DurableLog + Send>) -> Self {
        Durability {
            log,
            gc: GroupCommit::new(cfg),
            encode_buf: Vec::new(),
        }
    }
}

/// What a replica thread/slot hands back at shutdown.
pub struct ReplicaParts<E> {
    pub group: PartitionId,
    pub slot: u32,
    pub engine: E,
    /// True if the node ended the run as the group's primary.
    pub is_primary: bool,
    /// True if the node ended the run as a live backup.
    pub is_backup: bool,
    pub sched: SchedulerCounters,
    pub repl: ReplicationCounters,
    /// Framed bytes of the node's durable command log after a final clean
    /// sync (primary with durability on; `None` otherwise).
    pub log_image: Option<Vec<u8>>,
    /// Durable-log counters (all zero when durability was off or the node
    /// never served as a logging primary).
    pub dur: DurabilityCounters,
    /// Partition-side sequencer counters (all zero when sequencing was off
    /// or the node never served as a primary).
    pub seq: SequencerStats,
    /// Adaptive scheme-selection statistics (all zero/empty when
    /// `SystemConfig::adaptive` was off or the node never served as a
    /// primary).
    pub adaptive: AdaptiveStats,
}

/// One physical replica node (paper §2.3's single-threaded partition
/// engine, §3.2's backup, or both over its lifetime).
pub struct ReplicaActor<E: ExecutionEngine> {
    group: PartitionId,
    slot: u32,
    system: SystemConfig,
    engine: E,
    role: Role<E>,
    epoch: u32,
    /// Crash after shipping this many commit records (fault injection;
    /// armed only on the initial primary of the failed group).
    crash_after: Option<u64>,
    /// Coordinator shards that have not yet sent this promoted primary
    /// their [`Msg::RoutingApplied`]: their fragments are bounced as the
    /// dead node would bounce them (see the module docs). Empty on a
    /// primary that was never promoted.
    fenced: Vec<CoordinatorId>,
    /// Durable command log + group-commit state (durability on). Every
    /// node is built with its own log and only a primary writes to it, so a
    /// node promoted mid-run logs into a log that is empty until then — the
    /// prefix it applied as a backup is covered by the dead primary's log.
    dur: Option<Durability>,
    /// Durable-log counters of a log retired by a crash.
    dur_retired: DurabilityCounters,
    outbox: Outbox<E::Output>,
    scratch: Vec<PartitionOut<E::Output>>,
    /// Scheduler counters accumulated across roles (a promoted node keeps
    /// the counters of its backup past; a crashed primary keeps its own).
    sched_counters: SchedulerCounters,
    repl_counters: ReplicationCounters,
    /// Epoch-merge admission gate (primary with sequencing on; a promoted
    /// node starts a fresh, unsynced one).
    seq: Option<PartitionSequencer<E::Fragment>>,
    /// Sequencer counters of gates retired by a role change.
    seq_retired: SequencerStats,
    /// Adaptive stats of schedulers retired by a role change (a crashed
    /// primary's switch history still happened).
    adaptive_retired: AdaptiveStats,
    /// Wall time of the most recent step, so `into_parts` can close the
    /// open scheme-residency segment at teardown.
    last_now: Nanos,
}

impl<E> ReplicaActor<E>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    /// Build the node for (group, slot). Slot 0 starts as primary, other
    /// slots as backups (only created when `system.replication > 1`). `log`
    /// is the node's durable command log, used when `system.durability` is
    /// on (the live backends pass `MemLog::new()`, the simulator a log it
    /// keeps a handle on to inject faults and harvest crash images).
    pub fn new(
        group: PartitionId,
        slot: u32,
        system: &SystemConfig,
        engine: E,
        log: Box<dyn DurableLog + Send>,
        crash_after: Option<u64>,
    ) -> Self {
        let replicate = system.replication > 1;
        let durable = system.durability.is_some();
        let role = if slot == 0 {
            Role::Primary {
                sched: make_scheduler_send::<E>(system, group, None),
                // The session builds the commit records; the durable log
                // needs them even with replication off.
                session: (replicate || durable).then(ReplicationSession::new),
                gate: CommitGate::new(1..system.replication, 0),
                applied: hcc_common::FxHashSet::default(),
            }
        } else {
            Role::Backup {
                replica: ReplicaCore::new(),
            }
        };
        debug_assert!(
            crash_after.is_none() || (slot == 0 && replicate),
            "failure injection requires the primary of a replicated group"
        );
        ReplicaActor {
            group,
            slot,
            seq: (slot == 0 && system.sequencing_active())
                .then(|| PartitionSequencer::new(group, system.coordinators.max(1))),
            system: system.clone(),
            engine,
            role,
            epoch: 0,
            crash_after,
            fenced: Vec::new(),
            dur: system.durability.map(|cfg| Durability::new(cfg, log)),
            dur_retired: DurabilityCounters::default(),
            outbox: Outbox::new(system.costs),
            scratch: Vec::new(),
            sched_counters: SchedulerCounters::default(),
            repl_counters: ReplicationCounters::default(),
            seq_retired: SequencerStats::default(),
            adaptive_retired: AdaptiveStats::default(),
            last_now: Nanos::ZERO,
        }
    }

    pub fn into_parts(mut self) -> ReplicaParts<E> {
        let (is_primary, is_backup) = match &self.role {
            Role::Primary { sched, .. } => {
                self.sched_counters.merge(&sched.counters());
                if let Some(a) = sched.adaptive_stats(self.last_now) {
                    self.adaptive_retired.merge(&a);
                }
                (true, false)
            }
            Role::Backup { replica } => {
                self.repl_counters.merge(&replica.counters);
                (false, true)
            }
            Role::Failed | Role::Recovering => (false, false),
        };
        // Close the durable log cleanly: one final sync so the harvested
        // image's durable prefix covers everything appended before
        // shutdown (held results were all released during the run; this
        // only settles the trailing partial batch).
        let mut dur = self.dur_retired;
        let log_image = self.dur.take().and_then(|mut d| {
            if d.gc.pending() > 0 && d.log.sync().is_ok() {
                d.gc.on_synced();
            }
            dur.merge(&d.gc.counters);
            is_primary.then(|| d.log.crash_image())
        });
        let mut seq = self.seq_retired;
        if let Some(gate) = &self.seq {
            seq.merge(gate.stats());
        }
        ReplicaParts {
            group: self.group,
            slot: self.slot,
            engine: self.engine,
            is_primary,
            is_backup,
            sched: self.sched_counters,
            repl: self.repl_counters,
            log_image,
            dur,
            seq,
            adaptive: self.adaptive_retired,
        }
    }

    /// True while this node is its group's primary.
    pub fn is_primary(&self) -> bool {
        matches!(self.role, Role::Primary { .. })
    }

    /// True unless this node is a primary with a transaction active, queued
    /// or awaiting a decision (what a drained run must leave behind).
    pub fn is_idle(&self) -> bool {
        match &self.role {
            Role::Primary { sched, .. } => sched.is_idle(),
            _ => true,
        }
    }

    /// True while the durable log holds appended records no sync has
    /// covered: a driver that models the device's latency issues a sync
    /// when it sees this and calls [`on_drained`](Self::on_drained) when
    /// the device would answer.
    pub fn has_unsynced(&self) -> bool {
        self.dur.as_ref().is_some_and(|d| d.gc.pending() > 0)
    }

    /// Bounce one in-flight transaction with `PartitionFailed`: the
    /// retryable "your participant's node just died" signal, addressed to
    /// whoever is waiting on this node (the client for single-partition
    /// work, the 2PC coordinator otherwise; see
    /// `hcc_core::replica::failover_bounce`).
    fn bounce(&mut self, task: &FragmentTask<E::Fragment>, out: &mut Vec<OutMsg<E>>) {
        let txn = task.txn;
        let Some(bounce) = failover_bounce(self.group, txn, std::slice::from_ref(task)) else {
            return;
        };
        self.repl_counters.failover_bounces += 1;
        out.push(match bounce {
            FailoverBounce::ToClient { client } => OutMsg {
                dest: ActorId::Client(client),
                msg: Msg::Result {
                    txn,
                    result: TxnResult::Aborted(AbortReason::PartitionFailed),
                },
            },
            FailoverBounce::ToCoordinator { dest, response } => self.response(dest, response),
        });
    }

    /// A fragment response on its way to its coordinator, this node's
    /// membership epoch stamped into its execution attempts
    /// ([`stamp_attempt`]): a promoted primary counts attempts from 0
    /// again, and the epoch keeps its executions apart from the dead
    /// primary's. Epoch 0 changes nothing.
    fn response(
        &self,
        dest: CoordinatorRef,
        mut response: FragmentResponse<E::Output>,
    ) -> OutMsg<E> {
        if self.epoch != 0 {
            response.attempt = stamp_attempt(response.attempt, self.epoch);
            if let Some(dep) = &mut response.depends_on {
                dep.attempt = stamp_attempt(dep.attempt, self.epoch);
            }
        }
        match dest {
            CoordinatorRef::Central(k) => OutMsg {
                dest: ActorId::Coordinator(k),
                msg: Msg::Response(response),
            },
            CoordinatorRef::Client(c) => OutMsg {
                dest: ActorId::Client(c),
                msg: Msg::FragResponse(response),
            },
        }
    }

    /// The injected crash: flush what the commit gate holds, bounce
    /// everything still in flight, notify the membership actor (the
    /// "failure detector"), and go dark. Fires by itself after
    /// `crash_after` commits, or on a [`Msg::Crash`] a driver sends by its
    /// clock. Once per run at most: kept out of the step's hot body.
    #[cold]
    fn crash(&mut self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let old = std::mem::replace(&mut self.role, Role::Failed);
        let Role::Primary {
            sched,
            session,
            gate,
            ..
        } = old
        else {
            unreachable!("only a primary is crashed");
        };
        self.sched_counters.merge(&sched.counters());
        if let Some(a) = sched.adaptive_stats(now) {
            self.adaptive_retired.merge(&a);
        }
        // Every held record already shipped (failure injection requires
        // replication), so the backups will have it: release rather than
        // lose what it gates. The log dies with the node, and a crashed
        // primary falls back on replication as its durability story.
        let group = self.group;
        gate.flush(|owed| out.push(owed_out(group, owed, true)));
        if let Some(dur) = self.dur.take() {
            self.dur_retired.merge(&dur.gc.counters);
        }
        if let Some(mut session) = session {
            for (_txn, frags) in session.take_in_flight() {
                if let Some(task) = frags.first() {
                    self.bounce(task, out);
                }
            }
        }
        self.repl_counters.failed_at_ns = now.0;
        out.push(OutMsg {
            dest: ActorId::Membership,
            msg: Msg::PrimaryFailed {
                partition: self.group,
            },
        });
    }

    /// Primary-side: the transaction committed here — append its commit
    /// record to the durable log and ship it to every backup. Returns the
    /// record's seq and log position, for the commit gate; `None` when no
    /// record was made (replication and durability off, or nothing of the
    /// transaction ran here).
    fn ship_commit(
        &mut self,
        txn: TxnId,
        now: Nanos,
        out: &mut Vec<OutMsg<E>>,
    ) -> Option<(u64, Logged)> {
        let Role::Primary {
            session: Some(session),
            gate,
            ..
        } = &mut self.role
        else {
            return None;
        };
        let record = session.on_commit(txn)?;
        let seq = record.seq;
        let logged = match &mut self.dur {
            None => Logged::Off,
            Some(dur) => {
                dur.encode_buf.clear();
                record.encode(&mut dur.encode_buf);
                // An append *error* (injected write failure) leaves the
                // record out of the log although the engine committed:
                // whoever waits on it is told so, and no client reads
                // `Committed`.
                match dur.log.append(&dur.encode_buf) {
                    Ok(n) => {
                        dur.gc.on_append(now);
                        Logged::At(n)
                    }
                    Err(_) => Logged::Failed,
                }
            }
        };
        // Clone per extra backup; the last (commonly only) target moves
        // the record — zero allocations on the k=1 hot path.
        let (group, from_slot) = (self.group, self.slot);
        let ship = |slot, record| OutMsg {
            dest: ActorId::Replica(group, slot),
            msg: Msg::Commit { from_slot, record },
        };
        let mut targets = gate.targets();
        if let Some(last) = targets.next_back() {
            self.repl_counters.records_shipped += 1;
            for slot in targets {
                out.push(ship(slot, record.clone()));
            }
            out.push(ship(last, record));
        }
        Some((seq, logged))
    }

    /// Owe `owed` once record `seq` clears the commit gate, and release
    /// what the gate lets out now.
    fn hold(&mut self, seq: u64, logged: Logged, owed: Owed<E::Output>, out: &mut Vec<OutMsg<E>>) {
        let Role::Primary { gate, .. } = &mut self.role else {
            unreachable!()
        };
        gate.hold(seq, logged, owed);
        self.release(false, out);
    }

    /// Run the commit gate's release; `log_event` when a sync completing
    /// is what moved it, so the results it lets out waited on the log.
    fn release(&mut self, log_event: bool, out: &mut Vec<OutMsg<E>>) {
        let group = self.group;
        let Role::Primary { gate, .. } = &mut self.role else {
            return;
        };
        let released = gate.release(|owed, logged| out.push(owed_out(group, owed, logged)));
        if let Some(dur) = &mut self.dur {
            if log_event {
                dur.gc.counters.results_held += released.results;
            }
            dur.gc.counters.stalled_aborts += released.unlogged;
        }
    }

    /// The backend has nothing more to hand this node right now: close the
    /// group-commit batch. A logging primary with unsynced records syncs
    /// them — the sync call is synchronous: it either completes here,
    /// releasing everything its batch gated, or fails (injected stall), in
    /// which case the batch stays in flight until the tick-driven stall
    /// guard gives up on it. Every other node returns at once. (The live
    /// drivers call this when the node's queue runs dry; the simulator,
    /// which models the device's latency, when the device would answer —
    /// see [`has_unsynced`](Self::has_unsynced).)
    pub fn on_drained(&mut self, out: &mut Vec<OutMsg<E>>) {
        let Some(dur) = &mut self.dur else { return };
        if dur.gc.on_drained() == FlushDecision::SyncNow && dur.log.sync().is_ok() {
            dur.gc.on_synced();
            let durable = dur.log.durable();
            if let Role::Primary { gate, .. } = &mut self.role {
                gate.synced(durable);
            }
            self.release(true, out);
        }
    }

    /// Tick-driven stall guard: if the oldest unsynced append blew past the
    /// sync deadline, abandon everything appended so far — the commit gate
    /// releases what it held for those records as not logged (results as
    /// `LogStalled`, acks with `logged: false`, so the coordinator releases
    /// its results that way rather than wedge 2PC) once they are on the
    /// backups — and wipe the batch slate so the log can accept new work.
    fn check_log_stall(&mut self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let group = self.group;
        let Some(dur) = &mut self.dur else { return };
        if !dur.gc.stalled(now) {
            return;
        }
        let Role::Primary { gate, .. } = &mut self.role else {
            unreachable!()
        };
        gate.abandon(dur.log.appended());
        let released = gate.release(|owed, logged| out.push(owed_out(group, owed, logged)));
        dur.gc.on_stall_abort(released.unlogged);
        dur.gc.counters.results_held += released.results;
    }

    /// Consume one message. Returns the virtual CPU the step cost: what the
    /// scheduler charged for the work it did (zero for replay, role changes
    /// and bookkeeping, which the cost model does not price).
    pub fn step(
        &mut self,
        msg: Msg<E>,
        now: Nanos,
        ctl: &RunControl,
        out: &mut Vec<OutMsg<E>>,
    ) -> Nanos {
        self.last_now = now;
        // Dispatch on a copy of the role discriminant so the arms are free
        // to replace `self.role` (promotion, crash, rejoin).
        enum Kind {
            Primary,
            Backup,
            Failed,
            Recovering,
        }
        let kind = match &self.role {
            Role::Primary { .. } => Kind::Primary,
            Role::Backup { .. } => Kind::Backup,
            Role::Failed => Kind::Failed,
            Role::Recovering => Kind::Recovering,
        };
        match kind {
            Kind::Primary => return self.step_primary(msg, now, out),
            Kind::Backup => self.step_backup(msg, now, ctl, out),
            Kind::Failed => match msg {
                Msg::Fragment(task) => self.bounce(&task, out),
                Msg::Rejoin {
                    epoch,
                    primary_slot,
                    ..
                } => {
                    self.epoch = epoch;
                    self.role = Role::Recovering;
                    out.push(OutMsg {
                        dest: ActorId::Replica(self.group, primary_slot),
                        msg: Msg::FetchState {
                            requester_slot: self.slot,
                        },
                    });
                }
                // Decisions, ticks, acks, stray commit records: a dead
                // node drops them.
                _ => {}
            },
            Kind::Recovering => match msg {
                Msg::Fragment(task) => self.bounce(&task, out),
                Msg::Snapshot { engine, seq } => {
                    self.engine = *engine;
                    let mut replica = ReplicaCore::new();
                    replica.reset_to(seq);
                    self.role = Role::Backup { replica };
                    self.repl_counters.recoveries += 1;
                    self.repl_counters.recovered_at_ns = now.0;
                    ctl.recovery_done.store(true, Ordering::SeqCst);
                }
                _ => {}
            },
        }
        Nanos::ZERO
    }

    /// Hand a fragment to the scheduler (recording it for replication
    /// first) — the single admission point for direct, sequenced, and
    /// log-released fragments.
    fn admit_fragment(&mut self, task: FragmentTask<E::Fragment>, now: Nanos) {
        if let Role::Primary {
            session: Some(session),
            ..
        } = &mut self.role
        {
            session.record_fragment(&task);
        }
        let Role::Primary { sched, .. } = &mut self.role else {
            unreachable!()
        };
        sched.on_fragment(task, &mut self.engine, now, &mut self.outbox);
    }

    fn step_primary(&mut self, msg: Msg<E>, now: Nanos, out: &mut Vec<OutMsg<E>>) -> Nanos {
        debug_assert!(self.outbox.messages.is_empty());
        match msg {
            Msg::Fragment(task) => {
                if matches!(task.coordinator, CoordinatorRef::Central(k) if self.fenced.contains(&k))
                {
                    self.bounce(&task, out);
                    return Nanos::ZERO;
                }
                // Exactly-once guard for in-doubt redelivery: if this
                // (promoted) primary already applied the transaction as a
                // backup — its commit record reached the group before the
                // crash — executing it again would double-apply. Ack the
                // commit directly instead.
                if task.multi_partition {
                    if let Role::Primary { applied, .. } = &self.role {
                        if applied.contains(&task.txn) {
                            if let CoordinatorRef::Central(_) = task.coordinator {
                                let owed = Owed::Ack {
                                    txn: task.txn,
                                    to: task.coordinator,
                                };
                                out.push(owed_out(self.group, owed, true));
                            }
                            return Nanos::ZERO;
                        }
                    }
                }
                // Sequencing gate: centrally coordinated MP round-0
                // fragments dispatch in merged epoch order; a fragment
                // ahead of its turn is held until its predecessors arrive.
                if self.seq.is_some() && PartitionSequencer::gates(&task) {
                    match self.seq.as_mut().expect("checked").on_mp_fragment(task) {
                        Admit::Deliver(tasks) => {
                            for t in tasks {
                                self.admit_fragment(t, now);
                            }
                        }
                        Admit::Held => {}
                    }
                } else {
                    self.admit_fragment(task, now);
                }
            }
            Msg::RoutingApplied { shard } => {
                self.fenced.retain(|k| *k != shard);
                return Nanos::ZERO;
            }
            Msg::Crash => {
                self.crash(now, out);
                return Nanos::ZERO;
            }
            Msg::EpochLog(log) => {
                let released = match &mut self.seq {
                    Some(seq) => seq.on_log(log),
                    None => Vec::new(),
                };
                for t in released {
                    self.admit_fragment(t, now);
                }
            }
            Msg::Decision(d, ack_to) => {
                let shipped = if d.commit {
                    self.ship_commit(d.txn, now, out)
                } else {
                    if let Role::Primary {
                        session: Some(session),
                        ..
                    } = &mut self.role
                    {
                        session.on_abort(d.txn);
                    }
                    None
                };
                let Role::Primary { sched, .. } = &mut self.role else {
                    unreachable!()
                };
                let strays_before = sched.counters().stray_decisions;
                sched.on_decision(d, &mut self.engine, now, &mut self.outbox);
                // Acknowledge a processed commit so the shard can drop it
                // from the 2PC in-doubt window. A *stray* commit (a
                // transaction that died with a crashed predecessor) must
                // NOT be acked — acking it would falsely resolve the very
                // window the redelivery machinery is about to close.
                if let Some(ack_to) = ack_to {
                    let clean = {
                        let Role::Primary { sched, .. } = &self.role else {
                            unreachable!()
                        };
                        d.commit && sched.counters().stray_decisions == strays_before
                    };
                    if clean {
                        // The ack waits at the commit gate like a result:
                        // the coordinator (or the locking client's driver)
                        // may be holding the committed result until every
                        // participant acks.
                        let owed = Owed::Ack {
                            txn: d.txn,
                            to: ack_to,
                        };
                        match shipped {
                            Some((seq, logged)) => self.hold(seq, logged, owed, out),
                            None => out.push(owed_out(self.group, owed, true)),
                        }
                    }
                }
            }
            Msg::Tick => {
                {
                    let Role::Primary { sched, .. } = &mut self.role else {
                        unreachable!()
                    };
                    let _ = sched.on_tick(&mut self.engine, now, &mut self.outbox);
                }
                self.check_log_stall(now, out);
            }
            Msg::CommitAck { slot, seq } => {
                let Role::Primary { gate, .. } = &mut self.role else {
                    unreachable!()
                };
                gate.on_ack(slot, seq);
                self.release(false, out);
                return Nanos::ZERO; // pure bookkeeping: no scheduler outputs to drain
            }
            Msg::Promote { .. } => {
                // Already primary (initial slot-0 primary is never sent
                // this; defensive for re-deliveries).
                return Nanos::ZERO;
            }
            Msg::FetchState { requester_slot } => {
                let seq = {
                    let Role::Primary { session, gate, .. } = &mut self.role else {
                        unreachable!()
                    };
                    let seq = session.as_ref().map_or(0, |s| s.shipped());
                    gate.join(requester_slot, seq);
                    seq
                };
                self.repl_counters.snapshots_served += 1;
                out.push(OutMsg {
                    dest: ActorId::Replica(self.group, requester_slot),
                    msg: Msg::Snapshot {
                        engine: Box::new(self.engine.snapshot()),
                        seq,
                    },
                });
                return Nanos::ZERO;
            }
            _ => {
                debug_assert!(false, "unexpected message at primary {}", self.group);
                return Nanos::ZERO;
            }
        }
        // Adaptive runs: a scheme swap may have completed inside the
        // scheduler call above. Stamp it into the replication session
        // *before* shipping this step's commit records, so the next
        // shipped record carries the switch and a promoted backup resumes
        // in the same scheme at the same point of the commit order.
        if self.system.adaptive.is_on() {
            let Role::Primary { sched, session, .. } = &mut self.role else {
                unreachable!()
            };
            for note in sched.take_switch_notes() {
                if let Some(session) = session {
                    session.mark_scheme_switch(SchemeSwitch {
                        epoch: note.epoch,
                        scheme: note.scheme,
                    });
                }
            }
        }
        // Drain the scheduler's outputs: ship records for freshly
        // committed single-partition (and speculatively released)
        // transactions and hold their results at the commit gate; route
        // the rest.
        let mut scratch = std::mem::take(&mut self.scratch);
        let cpu = self.outbox.take_into(&mut scratch);
        for m in scratch.drain(..) {
            match m {
                PartitionOut::ToClient {
                    client,
                    txn,
                    result,
                } => {
                    let shipped = if result.is_committed() {
                        self.ship_commit(txn, now, out)
                    } else {
                        if let Role::Primary {
                            session: Some(session),
                            ..
                        } = &mut self.role
                        {
                            session.on_abort(txn);
                        }
                        None
                    };
                    let owed = Owed::Result {
                        client,
                        txn,
                        result,
                    };
                    match shipped {
                        Some((seq, logged)) => self.hold(seq, logged, owed, out),
                        None => out.push(owed_out(self.group, owed, true)),
                    }
                }
                PartitionOut::ToCoordinator { dest, response } => {
                    out.push(self.response(dest, response));
                }
            }
        }
        self.scratch = scratch;
        // Fault injection: die once the threshold-th record has shipped.
        if let Some(threshold) = self.crash_after {
            let shipped = match &self.role {
                Role::Primary {
                    session: Some(session),
                    ..
                } => session.shipped(),
                _ => 0,
            };
            if shipped >= threshold {
                self.crash_after = None;
                self.crash(now, out);
            }
        }
        cpu
    }

    fn step_backup(
        &mut self,
        msg: Msg<E>,
        _now: Nanos,
        _ctl: &RunControl,
        out: &mut Vec<OutMsg<E>>,
    ) {
        match msg {
            Msg::Commit { from_slot, record } => {
                let Role::Backup { replica } = &mut self.role else {
                    unreachable!()
                };
                let seq = record.seq;
                // Propagate, don't assert: a replay failure lands in the
                // counters and fails the run's health checks.
                let _ = replica.apply(&mut self.engine, &record);
                out.push(OutMsg {
                    dest: ActorId::Replica(self.group, from_slot),
                    msg: Msg::CommitAck {
                        slot: self.slot,
                        seq: seq.min(replica.watermark()),
                    },
                });
            }
            Msg::Promote { epoch } => {
                let Role::Backup { replica } = &mut self.role else {
                    unreachable!()
                };
                // Every record the dead primary shipped is already applied
                // (it was queued ahead of this promotion on FIFO links);
                // resume its log without a gap. The failed node becomes a
                // ship target only once it rejoins (via FetchState).
                self.repl_counters.merge(&replica.counters);
                let applied = replica.take_applied_txns();
                let watermark = replica.watermark();
                // Adaptive runs: the commit log says which scheme was in
                // force at the watermark; resume there so failover lands
                // in the same scheme at the same transition epoch.
                let resume = replica.scheme_switch();
                // Surviving sibling backups hold the same record prefix
                // this node does.
                let gate = CommitGate::new(
                    (1..self.system.replication).filter(|&s| s != self.slot),
                    watermark,
                );
                self.epoch = epoch;
                self.fenced = (0..self.system.coordinators.max(1))
                    .map(CoordinatorId)
                    .collect();
                self.repl_counters.promotions += 1;
                self.role = Role::Primary {
                    sched: make_scheduler_send::<E>(&self.system, self.group, resume),
                    session: Some(ReplicationSession::resume_from(watermark)),
                    gate,
                    applied,
                };
                // A promoted primary logs from here on into its own, so far
                // empty, log; the prefix it applied as a backup lives in the
                // dead node's log (correlated-crash recovery of a failed-over
                // group needs both, which the harness does not exercise).
                // The dead primary's merge position and held fragments are
                // lost with it: start unsynced and join the merge at the
                // first complete post-failover era.
                if self.system.sequencing_active() {
                    let old = self.seq.replace(PartitionSequencer::promoted(
                        self.group,
                        self.system.coordinators.max(1),
                    ));
                    if let Some(old) = old {
                        self.seq_retired.merge(old.stats());
                    }
                }
            }
            // A fragment can only arrive here through the membership flip
            // racing ahead of the promotion, which the coordinator's
            // emission order prevents; bounce defensively so the client
            // retries rather than hangs.
            Msg::Fragment(task) => self.bounce(&task, out),
            // Late decisions/acks/ticks/epoch logs for a role this node no
            // longer plays: drop. (An epoch log can only arrive here
            // through the membership flip racing ahead of the promotion;
            // the unsynced promoted gate passes the affected fragments
            // through when they are redelivered.)
            Msg::Decision(..) | Msg::CommitAck { .. } | Msg::Tick | Msg::EpochLog(_) => {}
            Msg::FetchState { requester_slot } => {
                // Serve a sibling's recovery from backup state (only the
                // primary is asked in the current protocol, but the answer
                // is just as correct from any live replica).
                let Role::Backup { replica } = &self.role else {
                    unreachable!()
                };
                let seq = replica.watermark();
                self.repl_counters.snapshots_served += 1;
                out.push(OutMsg {
                    dest: ActorId::Replica(self.group, requester_slot),
                    msg: Msg::Snapshot {
                        engine: Box::new(self.engine.snapshot()),
                        seq,
                    },
                });
            }
            _ => debug_assert!(false, "unexpected message at backup {}", self.group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::Scheme;
    use hcc_core::{Request, RequestGenerator};
    use hcc_storage::{FaultMode, MemLog};
    use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
    use std::sync::{Arc, Mutex as StdMutex};

    /// The part of the stall guard both live backends share: a sync that
    /// fails is not retried when the node is drained again, everything its
    /// batch parked is bounced once the tick finds it past the deadline,
    /// and the log then takes new work.
    #[test]
    fn stalled_sync_is_not_retried_and_the_tick_bounces_its_batch() {
        let mc = MicroConfig {
            partitions: 1,
            clients: 1,
            ..Default::default()
        };
        let dur = DurabilityConfig::default();
        let deadline = dur.sync_deadline;
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(1)
            .with_clients(1)
            .with_durability(dur);
        let mut workload = MicroWorkload::new(mc);
        let engine = workload.build_engine(PartitionId(0));
        let log = Arc::new(StdMutex::new(MemLog::new()));
        let mut node: ReplicaActor<MicroEngine> = ReplicaActor::new(
            PartitionId(0),
            0,
            &system,
            engine,
            Box::new(log.clone()),
            None,
        );
        let stall = |_: &mut ReplicaActor<MicroEngine>, on: bool| {
            log.lock().unwrap().fault = FaultMode {
                stall_syncs_after: on.then_some(0),
                ..FaultMode::default()
            };
        };
        let ctl = RunControl::new(1, RunMode::FixedRequests(1));
        let mut out = Vec::new();
        let mut commit = |node: &mut ReplicaActor<MicroEngine>, seq: u32, now: Nanos| {
            let Request::SinglePartition { fragment, .. } = workload.next_request(ClientId(0))
            else {
                panic!("one partition: every request is single-partition");
            };
            let task = FragmentTask {
                txn: TxnId::new(ClientId(0), seq),
                coordinator: CoordinatorRef::Client(ClientId(0)),
                client: ClientId(0),
                fragment,
                multi_partition: false,
                last_fragment: true,
                round: 0,
                can_abort: false,
            };
            let mut out = Vec::new();
            node.step(Msg::Fragment(task), now, &ctl, &mut out);
            assert!(out.is_empty(), "a committed result waits for its sync");
        };
        let t0 = Nanos::from_micros(10);
        stall(&mut node, true);
        commit(&mut node, 1, t0);
        node.on_drained(&mut out);
        assert!(out.is_empty(), "the sync stalled");
        // The device would answer now, but the failed sync is the stall
        // guard's to give up on, not the next drain's to retry.
        stall(&mut node, false);
        commit(&mut node, 2, t0 + Nanos::from_micros(5));
        node.on_drained(&mut out);
        assert!(out.is_empty(), "no retry while a sync is in flight");

        let just_before = t0 + deadline - Nanos(1);
        node.step(Msg::Tick, just_before, &ctl, &mut out);
        assert!(out.is_empty());
        node.step(Msg::Tick, t0 + deadline, &ctl, &mut out);
        let bounced = |m: &OutMsg<MicroEngine>| {
            matches!(
                m.msg,
                Msg::Result {
                    result: TxnResult::Aborted(AbortReason::LogStalled),
                    ..
                }
            )
        };
        assert!(out.len() == 2 && out.iter().all(bounced));
        out.clear();

        commit(&mut node, 3, t0 + deadline + Nanos::from_micros(1));
        node.on_drained(&mut out);
        assert!(
            matches!(
                out[..],
                [OutMsg {
                    msg: Msg::Result {
                        result: TxnResult::Committed(_),
                        ..
                    },
                    ..
                }]
            ),
            "the next batch syncs and releases"
        );
        let counters = node.into_parts().dur;
        assert_eq!((counters.syncs, counters.stalled_aborts), (1, 2));
    }
}
