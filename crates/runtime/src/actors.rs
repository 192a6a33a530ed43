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
//! calibrated Table-2 [`CostModel`](hcc_common::CostModel) (a
//! partition's fragment execution, undo, lock overhead; a coordinator's or
//! a client-side 2PC driver's per-message cost; zero for replay, role
//! changes and bookkeeping, which the model does not price). The live
//! drivers read the wall clock and ignore the number; the simulator
//! advances the actor's busy-until clock by it, which is all it takes for
//! the simulator to run this code rather than a copy of it.
//!
//! # Replica groups, failover, recovery
//!
//! Each partition is a *replica group* of `replication` physical nodes:
//! slot 0 starts as the primary, slots 1.. as backups replaying the
//! primary's commit-order log through the shared
//! [`hcc_core::replica::ReplicaCore`] (paper §3.2). A [`ReplicaActor`]
//! owns one node — its slot, membership epoch, engine and counters — and
//! changes `Role` over its lifetime. Each role owns the state only it
//! uses, so a step dispatches once on the role and the role's methods
//! never look at it again:
//!
//! * **Primary** (`Primary`) — the scheme's scheduler, shipping a
//!   [`CommitRecord`] per commit to every backup through its
//!   `ReplicationSession`, with the sequencer gate, the durable log, the
//!   fence list and the crash threshold. Its [`CommitGate`] holds each
//!   committed single-partition result and each 2PC decision ack until
//!   the record is on every backup (§2.2: a transaction commits once it is
//!   on `k` replicas) and in the durable log, when there is one.
//! * **Backup** (`Backup`) — sequence-checked replay; every applied
//!   record is acked back to whichever slot shipped it. Replay failures
//!   are *propagated* into [`ReplicationCounters`] and surfaced in the run
//!   report, never swallowed. It holds the node's durable log unwritten
//!   and hands it to the primary it is promoted to.
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
//! A role ends three ways: a crash (primary → failed), a promotion
//! (backup → primary) and the end of the run. Each goes through one
//! path that folds the ending role's scheduler, log, sequencer, adaptive
//! and replay counters into the node's `Retired` accumulator, so
//! [`ReplicaParts`] reports every role's counters once.
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
//! [`CoordinatorId`]): clients are statically partitioned across shards,
//! and each shard's `Coordinator` core is the whole shard — 2PC,
//! speculation chains, epoch sequencing and stall expiry — so
//! [`CoordinatorActor`], like [`MembershipActor`], only routes. In
//! failover runs the shards also track the 2PC in-doubt window: primaries
//! acknowledge commit decisions ([`Msg::DecisionAck`]), and a routing
//! update makes the owning shard re-deliver any unacknowledged commit's
//! fragments to the promoted primary — closing the window instead of
//! documenting it.
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
    AbortReason, CachePadded, ClientId, CommitRecord, CoordinatorId, CoordinatorRef, Decision,
    DurabilityConfig, FragmentResponse, FragmentTask, Nanos, PartitionId, SchemeSwitch,
    SystemConfig, TxnId, TxnResult,
};
use hcc_core::client::{ClientCore, ClientStats, NextAction};
use hcc_core::coordinator::{stamp_attempt, CoordOut, Coordinator, PeerNote};
use hcc_core::group_commit::{FlushDecision, GroupCommit};
use hcc_core::membership::MembershipCore;
use hcc_core::replica::{
    failover_bounce, CommitGate, FailoverBounce, Logged, Owed, ReplicaCore, ReplicationSession,
};
use hcc_core::sequencer::{Admit, EpochLog, EpochLogDest, PartitionSequencer};
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    ExecutionEngine, Outbox, PartitionOut, PartitionScheduler, Procedure, Request,
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

impl From<CoordinatorRef> for ActorId {
    /// Where a transaction's coordinator lives: a central shard, or a
    /// client running its own 2PC.
    fn from(c: CoordinatorRef) -> Self {
        match c {
            CoordinatorRef::Central(k) => ActorId::Coordinator(k),
            CoordinatorRef::Client(c) => ActorId::Client(c),
        }
    }
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
    /// A unit of work for a partition.
    Fragment(FragmentTask<E::Fragment>),
    /// A two-phase-commit decision for a partition. The second field is
    /// the coordinator (central shard or client driver) expecting a
    /// [`Msg::DecisionAck`] for a processed commit — in-doubt tracking
    /// and/or durable result release; `None` otherwise.
    Decision(Decision, Option<CoordinatorRef>),
    /// Periodic maintenance, sent per [`crate::TickPlan`]: a primary's
    /// lock-timeout scan and durable-log stall guard, a coordinator shard's
    /// stall expiry and epoch age-close, a client's retry-backoff wake-up.
    Tick,
    /// A multi-partition invocation for the central coordinator.
    Invoke {
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<E::Fragment, E::Output>>,
        can_abort: bool,
    },
    /// A fragment response for its coordinator: a central shard, or a
    /// client running its own 2PC (the address tells them apart).
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

/// A generator's fragment and output types.
type Frag<W> = <<W as RequestGenerator>::Engine as ExecutionEngine>::Fragment;
type Out<W> = <<W as RequestGenerator>::Engine as ExecutionEngine>::Output;

/// Where a client's multi-partition transactions go.
enum Route<F, R> {
    /// The coordinator shard that owns this client's transactions (static
    /// partitioning).
    Shard(CoordinatorId),
    /// This client's own two-phase commit ([`SystemConfig::client_2pc`]).
    Own(Box<TxnDriver<F, R>>),
}

/// A closed-loop client (paper §5) as a poll-driven state machine: issue
/// one request, await its final result, issue the next. Under the locking
/// scheme the client runs its own two-phase commit through [`TxnDriver`]
/// (§4.3), so fragment responses also arrive here.
pub struct ClientActor<W: RequestGenerator> {
    core: ClientCore,
    /// This client's share of the generator; `None` draws from the shared
    /// one in [`ClientCtx`] instead.
    generator: Option<W>,
    route: Route<Frag<W>, Out<W>>,
    /// The request in flight, kept to re-submit on a retry.
    pending: Option<Request<Frag<W>, Out<W>>>,
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
    done: bool,
    scratch: Vec<CoordOut<Frag<W>, Out<W>>>,
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
        let route = if system.client_2pc() {
            let mut driver = TxnDriver::new(system.costs, id);
            // Durable release: the driver parks committed results until
            // every participant acks — which partitions do only once the
            // commit record is durably logged.
            driver.set_hold_results(system.durability.is_some());
            Route::Own(Box::new(driver))
        } else {
            Route::Shard(system.coordinator_of(id))
        };
        ClientActor {
            core: ClientCore::with_retry(id, system.retry),
            generator,
            route,
            pending: None,
            current_txn: None,
            submitted_at: Nanos::ZERO,
            retry_at: None,
            remaining: requests,
            record_always: requests.is_some(),
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

    /// Commits this client's own 2PC still holds for a participant's ack
    /// (0 when a shard coordinates its transactions).
    pub fn in_doubt(&self) -> usize {
        match &self.route {
            Route::Own(driver) => driver.in_doubt_len(),
            Route::Shard(_) => 0,
        }
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
                matches!(msg, Msg::Tick | Msg::Response(_) | Msg::DecisionAck { .. }),
                "message delivered to a retired client"
            );
            return Nanos::ZERO;
        }
        match (msg, &mut self.route) {
            (Msg::Start, _) => {
                debug_assert!(self.pending.is_none());
                let id = self.core.id;
                let req = self.generate(ctx, |g| g.next_request(id));
                self.pending = Some(req);
                self.submitted_at = now;
                self.dispatch(now, out);
            }
            (Msg::Result { txn, result }, _) => self.handle_result(txn, result, now, ctx, out),
            (Msg::Tick, _) => {
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
            (Msg::Response(r), Route::Own(driver)) => driver.on_response(r, &mut self.scratch),
            // Durable release: a participant durably logged our commit
            // decision; the final ack releases the parked result.
            (
                Msg::DecisionAck {
                    txn,
                    partition,
                    logged,
                },
                Route::Own(driver),
            ) => driver.on_decision_ack(txn, partition, logged, &mut self.scratch),
            _ => debug_assert!(false, "unexpected message at client {}", self.core.id),
        }
        for o in self.scratch.drain(..) {
            push_coord_out(o, out);
        }
        match &mut self.route {
            Route::Own(driver) => driver.take_cpu(),
            Route::Shard(_) => Nanos::ZERO,
        }
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
                let mp = matches!(self.pending, Some(Request::MultiPartition { .. }));
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
                        self.pending = Some(req);
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
        // A retry re-submits a clone: the fragment's (workloads make it a
        // reference count) or the procedure's `clone_box`.
        match self.pending.clone().expect("pending request") {
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
            } => match &mut self.route {
                Route::Own(driver) => driver.begin(txn, procedure, can_abort, &mut self.scratch),
                Route::Shard(k) => out.push(OutMsg {
                    dest: ActorId::Coordinator(*k),
                    msg: Msg::Invoke {
                        txn,
                        client,
                        procedure,
                        can_abort,
                    },
                }),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// One central coordinator shard (paper §3.3) as an actor: a routing
/// shell over [`Coordinator`], which owns the shard's whole protocol — 2PC,
/// speculation chains, in-doubt commits, epoch sequencing and stall
/// expiry. Clients are statically partitioned across shards. Membership
/// authority lives in [`MembershipActor`], whose routing updates this actor
/// acknowledges to the failed group ([`Msg::RoutingApplied`]) before the
/// core acts on them.
pub struct CoordinatorActor<E: ExecutionEngine> {
    coord: Coordinator<E::Fragment, E::Output>,
    id: CoordinatorId,
    scratch: Vec<CoordOut<E::Fragment, E::Output>>,
}

impl<E: ExecutionEngine> CoordinatorActor<E> {
    /// Shard `id` of `system`'s coordinators ([`Coordinator::shard`]).
    pub fn new(system: &SystemConfig, id: CoordinatorId, track_in_doubt: bool) -> Self {
        CoordinatorActor {
            coord: Coordinator::shard(system, id, track_in_doubt),
            id,
            scratch: Vec::new(),
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

    /// True when nothing here could need a [`Msg::Tick`].
    pub fn is_idle(&self) -> bool {
        self.coord.is_idle()
    }

    /// Sequencer counters for the run report.
    pub fn seq_stats(&self) -> SequencerStats {
        self.coord.seq_stats()
    }

    /// Consume one message. Returns the virtual CPU the step cost.
    pub fn step(&mut self, msg: Msg<E>, now: Nanos, out: &mut Vec<OutMsg<E>>) -> Nanos {
        debug_assert!(self.scratch.is_empty());
        let (coord, scratch) = (&mut self.coord, &mut self.scratch);
        match msg {
            Msg::Invoke {
                txn,
                client,
                procedure,
                can_abort,
            } => coord.on_invoke_at(txn, client, procedure, can_abort, now, scratch),
            Msg::Response(r) => coord.on_response(r, scratch),
            Msg::Tick => coord.on_tick(now, scratch),
            Msg::RoutingUpdate { partition, epoch } => {
                // The marker goes first: the re-deliveries queued below
                // must find the promoted primary's fence already down.
                out.push(OutMsg {
                    dest: ActorId::Partition(partition),
                    msg: Msg::RoutingApplied { shard: self.id },
                });
                coord.on_partition_failed(partition, epoch, scratch);
            }
            Msg::DecisionAck {
                txn,
                partition,
                logged,
            } => coord.on_decision_ack(txn, partition, logged, scratch),
            Msg::EpochLog(log) => coord.on_peer_log(log, now, scratch),
            Msg::PeerNote(note) => coord.on_peer_decision(note, scratch),
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
            dest: to.into(),
            msg: Msg::DecisionAck {
                txn,
                partition: group,
                logged,
            },
        },
    }
}

/// The role a replica node currently plays, holding what only that role
/// uses; see the module docs. One per node, changed at most a few times a
/// run, so the size of the unboxed primary costs nothing.
#[allow(clippy::large_enum_variant)]
enum Role<E: ExecutionEngine> {
    Primary(Primary<E>),
    Backup(Backup),
    Failed,
    Recovering,
}

/// A primary's state: the scheme's scheduler and everything that turns
/// its commits into shipped, logged, acknowledged records.
struct Primary<E: ExecutionEngine> {
    sched: PartitionScheduler<E>,
    /// Commit-order log shipping state; `None` when replication and
    /// durability are both off.
    session: Option<ReplicationSession<E::Fragment>>,
    /// Where records ship, and the results and decision acks held until
    /// their record is on every backup and in the log.
    gate: CommitGate<E::Output>,
    /// Transactions this node applied during its backup past (empty for an
    /// initial primary): the exactly-once guard that keeps a re-delivered
    /// in-doubt commit from applying twice when its record *did* reach the
    /// backups before the crash.
    applied: hcc_common::FxHashSet<TxnId>,
    /// Epoch-merge admission gate (sequencing on; a promoted primary starts
    /// a fresh, unsynced one).
    seq: Option<PartitionSequencer<E::Fragment>>,
    /// The node's durable command log (durability on). A promoted primary
    /// logs into its own log, empty until then: the prefix it applied as a
    /// backup is covered by the dead primary's log.
    dur: Option<Durability>,
    /// Coordinator shards that have not yet sent this promoted primary
    /// their [`Msg::RoutingApplied`]: their fragments are bounced as the
    /// dead node would bounce them (see the module docs). Empty on a
    /// primary that was never promoted.
    fenced: Vec<CoordinatorId>,
    /// Crash after shipping this many commit records (fault injection;
    /// armed only on the initial primary of the failed group).
    crash_after: Option<u64>,
    outbox: Outbox<E::Output>,
    scratch: Vec<PartitionOut<E::Output>>,
}

/// A backup's state: the sequence-checked replay of its primary's log.
struct Backup {
    replica: ReplicaCore,
    /// The node's durable log, unwritten while it is a backup and handed
    /// to the primary it is promoted to (`None` when durability is off, or
    /// after a crash took the node's log with it).
    dur: Option<Durability>,
}

/// What a node keeps across its roles.
struct Node<E> {
    group: PartitionId,
    slot: u32,
    /// The membership epoch this node last joined under (0 until a
    /// failover).
    epoch: u32,
    system: SystemConfig,
    engine: E,
    retired: Retired,
}

hcc_common::counters! {
    /// A node's counters across its roles, and the per-node set of blocks the
    /// drivers merge into a run's report. A role that ends — crashed,
    /// promoted, or still running at teardown — folds in what its
    /// scheduler, log, sequencer gate and replay core counted, once,
    /// through [`retire`](Self::retire). The node's own replication events
    /// (records shipped, bounces, snapshots served, promotions, recoveries)
    /// belong to no role's state and are counted in `repl` as they happen.
    #[derive(Default)]
    pub struct Retired {
        /// Scheduler counters (all zero when the node never served as a
        /// primary).
        part sched: SchedulerCounters,
        /// Replication counters: the node's own events and its backup
        /// roles' replay.
        part repl: ReplicationCounters,
        /// Durable-log counters (all zero when durability was off or the
        /// node never served as a logging primary).
        part dur: DurabilityCounters,
        /// Partition-side sequencer counters (all zero when sequencing was
        /// off or the node never served as a primary).
        part seq: SequencerStats,
        /// Adaptive scheme-selection statistics (all zero/empty when
        /// `SystemConfig::adaptive` was off or the node never served as a
        /// primary).
        part adaptive: AdaptiveStats,
    }
}

impl Retired {
    /// Fold in the counters of `role`, which ends at `now`.
    fn retire<E: ExecutionEngine>(&mut self, role: &Role<E>, now: Nanos) {
        match role {
            Role::Primary(p) => {
                self.sched.merge(&p.sched.counters());
                if let Some(a) = p.sched.adaptive_stats(now) {
                    self.adaptive.merge(&a);
                }
                if let Some(gate) = &p.seq {
                    self.seq.merge(gate.stats());
                }
                if let Some(dur) = &p.dur {
                    self.dur.merge(&dur.gc.counters);
                }
            }
            // A backup's log is unwritten: it passes on to the primary the
            // backup becomes, and is counted there.
            Role::Backup(b) => self.repl.merge(&b.replica.counters),
            Role::Failed | Role::Recovering => {}
        }
    }
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
    /// Framed bytes of the node's durable command log after a final clean
    /// sync (primary with durability on; `None` otherwise).
    pub log_image: Option<Vec<u8>>,
    /// Every role's counters, each retired once.
    pub counters: Retired,
}

/// One physical replica node (paper §2.3's single-threaded partition
/// engine, §3.2's backup, or both over its lifetime).
pub struct ReplicaActor<E: ExecutionEngine> {
    node: Node<E>,
    role: Role<E>,
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
        debug_assert!(
            crash_after.is_none() || (slot == 0 && replicate),
            "failure injection requires the primary of a replicated group"
        );
        let dur = system.durability.map(|cfg| Durability::new(cfg, log));
        let role = if slot == 0 {
            Role::Primary(Primary {
                sched: PartitionScheduler::new(system, group, None, Nanos::ZERO),
                // The session builds the commit records; the durable log
                // needs them even with replication off.
                session: (replicate || dur.is_some()).then(ReplicationSession::new),
                gate: CommitGate::new(1..system.replication, 0),
                applied: hcc_common::FxHashSet::default(),
                seq: system
                    .sequencing_active()
                    .then(|| PartitionSequencer::new(group, system.coordinators.max(1))),
                dur,
                fenced: Vec::new(),
                crash_after,
                outbox: Outbox::new(system.costs),
                scratch: Vec::new(),
            })
        } else {
            Role::Backup(Backup {
                replica: ReplicaCore::new(),
                dur,
            })
        };
        ReplicaActor {
            node: Node {
                group,
                slot,
                epoch: 0,
                system: system.clone(),
                engine,
                retired: Retired::default(),
            },
            role,
            last_now: Nanos::ZERO,
        }
    }

    pub fn into_parts(mut self) -> ReplicaParts<E> {
        let (is_primary, is_backup) = (self.is_primary(), matches!(self.role, Role::Backup(_)));
        let log_image = match &mut self.role {
            Role::Primary(p) => p.close_log(),
            _ => None,
        };
        self.end_role(self.last_now);
        let Node {
            group,
            slot,
            engine,
            retired: counters,
            ..
        } = self.node;
        ReplicaParts {
            group,
            slot,
            engine,
            is_primary,
            is_backup,
            log_image,
            counters,
        }
    }

    /// True while this node is its group's primary.
    pub fn is_primary(&self) -> bool {
        matches!(self.role, Role::Primary(_))
    }

    /// True unless this node is a primary with a transaction active, queued
    /// or awaiting a decision (what a drained run must leave behind).
    pub fn is_idle(&self) -> bool {
        match &self.role {
            Role::Primary(p) => p.sched.is_idle(),
            _ => true,
        }
    }

    /// True while the durable log holds appended records no sync has
    /// covered: a driver that models the device's latency issues a sync
    /// when it sees this and calls [`on_drained`](Self::on_drained) when
    /// the device would answer.
    pub fn has_unsynced(&self) -> bool {
        matches!(&self.role, Role::Primary(Primary { dur: Some(d), .. }) if d.gc.pending() > 0)
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
        if let Role::Primary(p) = &mut self.role {
            p.on_drained(self.node.group, out);
        }
    }

    /// End the current role: fold its counters in and leave the node
    /// `Failed` until the caller gives it its next role.
    fn end_role(&mut self, now: Nanos) -> Role<E> {
        let role = std::mem::replace(&mut self.role, Role::Failed);
        self.node.retired.retire(&role, now);
        role
    }

    /// The injected crash of a primary ([`Primary::crash`]). Fires by
    /// itself after `crash_after` commits, or on a [`Msg::Crash`] a driver
    /// sends by its clock. Once per run at most: kept out of the step's hot
    /// body.
    #[cold]
    fn crash(&mut self, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        if let Role::Primary(p) = self.end_role(now) {
            p.crash(&mut self.node, now, out);
        }
    }

    /// Membership made this backup the group's primary under `epoch`.
    fn promote(&mut self, epoch: u32, now: Nanos) {
        if let Role::Backup(b) = self.end_role(now) {
            self.role = Role::Primary(b.promote(&mut self.node, epoch, now));
        }
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
        let node = &mut self.node;
        match (&mut self.role, msg) {
            (Role::Primary(_), Msg::Crash) => self.crash(now, out),
            (Role::Primary(p), msg) => {
                let cpu = p.step(node, msg, now, out);
                if p.crash_due() {
                    self.crash(now, out);
                }
                return cpu;
            }
            (Role::Backup(_), Msg::Promote { epoch }) => self.promote(epoch, now),
            (Role::Backup(b), msg) => b.step(node, msg, out),
            (Role::Failed | Role::Recovering, Msg::Fragment(task)) => node.bounce(&task, out),
            (
                Role::Failed,
                Msg::Rejoin {
                    epoch,
                    primary_slot,
                    ..
                },
            ) => {
                node.epoch = epoch;
                out.push(OutMsg {
                    dest: ActorId::Replica(node.group, primary_slot),
                    msg: Msg::FetchState {
                        requester_slot: node.slot,
                    },
                });
                self.role = Role::Recovering;
            }
            (Role::Recovering, Msg::Snapshot { engine, seq }) => {
                node.engine = *engine;
                let mut replica = ReplicaCore::new();
                replica.reset_to(seq);
                // The node's log died with its crash.
                self.role = Role::Backup(Backup { replica, dur: None });
                node.retired.repl.recoveries += 1;
                node.retired.repl.recovered_at_ns = now.0;
                ctl.recovery_done.store(true, Ordering::SeqCst);
            }
            // Decisions, ticks, acks, stray commit records: a dead node
            // drops them.
            (Role::Failed | Role::Recovering, _) => {}
        }
        Nanos::ZERO
    }
}

impl<E: ExecutionEngine> Node<E> {
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
        self.retired.repl.failover_bounces += 1;
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
        OutMsg {
            dest: dest.into(),
            msg: Msg::Response(response),
        }
    }

    /// Answer a recovering node's [`Msg::FetchState`]: this node's engine,
    /// as of log position `seq`.
    fn send_snapshot(&mut self, requester_slot: u32, seq: u64, out: &mut Vec<OutMsg<E>>) {
        self.retired.repl.snapshots_served += 1;
        out.push(OutMsg {
            dest: ActorId::Replica(self.group, requester_slot),
            msg: Msg::Snapshot {
                engine: Box::new(self.engine.snapshot()),
                seq,
            },
        });
    }
}

impl<E> Primary<E>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    /// Consume one message as the group's primary.
    fn step(
        &mut self,
        node: &mut Node<E>,
        msg: Msg<E>,
        now: Nanos,
        out: &mut Vec<OutMsg<E>>,
    ) -> Nanos {
        debug_assert!(self.outbox.messages.is_empty());
        match msg {
            Msg::Fragment(task) => {
                if matches!(task.coordinator, CoordinatorRef::Central(k) if self.fenced.contains(&k))
                {
                    node.bounce(&task, out);
                    return Nanos::ZERO;
                }
                // Exactly-once guard for in-doubt redelivery: if this
                // (promoted) primary already applied the transaction as a
                // backup — its commit record reached the group before the
                // crash — executing it again would double-apply. Ack the
                // commit directly instead.
                if task.multi_partition && self.applied.contains(&task.txn) {
                    if let CoordinatorRef::Central(_) = task.coordinator {
                        let owed = Owed::Ack {
                            txn: task.txn,
                            to: task.coordinator,
                        };
                        self.owe(node.group, None, owed, out);
                    }
                    return Nanos::ZERO;
                }
                // Sequencing gate: centrally coordinated MP round-0
                // fragments dispatch in merged epoch order; a fragment
                // ahead of its turn is held until its predecessors arrive.
                match &mut self.seq {
                    Some(seq) if PartitionSequencer::gates(&task) => {
                        if let Admit::Deliver(tasks) = seq.on_mp_fragment(task) {
                            for t in tasks {
                                self.admit(t, &mut node.engine, now);
                            }
                        }
                    }
                    _ => self.admit(task, &mut node.engine, now),
                }
            }
            Msg::RoutingApplied { shard } => {
                self.fenced.retain(|k| *k != shard);
                return Nanos::ZERO;
            }
            Msg::EpochLog(log) => {
                let released = match &mut self.seq {
                    Some(seq) => seq.on_log(log),
                    None => Vec::new(),
                };
                for t in released {
                    self.admit(t, &mut node.engine, now);
                }
            }
            Msg::Decision(d, ack_to) => {
                let shipped = self.end_txn(node, d.txn, d.commit, now, out);
                let stray = self
                    .sched
                    .on_decision(d, &mut node.engine, now, &mut self.outbox);
                // Acknowledge a processed commit so the shard can drop it
                // from the 2PC in-doubt window. A *stray* commit (a
                // transaction that died with a crashed predecessor) must
                // NOT be acked — acking it would falsely resolve the very
                // window the redelivery machinery is about to close. The
                // ack waits at the commit gate like a result: the
                // coordinator (or the locking client's driver) may be
                // holding the committed result until every participant
                // acks.
                if let Some(to) = ack_to {
                    if d.commit && !stray {
                        self.owe(node.group, shipped, Owed::Ack { txn: d.txn, to }, out);
                    }
                }
            }
            Msg::Tick => {
                self.sched.on_tick(&mut node.engine, now, &mut self.outbox);
                self.check_log_stall(node.group, now, out);
            }
            Msg::CommitAck { slot, seq } => {
                self.gate.on_ack(slot, seq);
                self.release(node.group, false, out);
                return Nanos::ZERO; // pure bookkeeping: no scheduler outputs to drain
            }
            // Already primary (an initial primary is never sent this;
            // defensive for re-deliveries).
            Msg::Promote { .. } => return Nanos::ZERO,
            Msg::FetchState { requester_slot } => {
                let seq = self.session.as_ref().map_or(0, |s| s.shipped());
                self.gate.join(requester_slot, seq);
                node.send_snapshot(requester_slot, seq, out);
                return Nanos::ZERO;
            }
            _ => {
                debug_assert!(false, "unexpected message at primary {}", node.group);
                return Nanos::ZERO;
            }
        }
        // Adaptive runs: a scheme swap may have completed inside the
        // scheduler call above. Stamp it into the replication session
        // *before* shipping this step's commit records, so the next
        // shipped record carries the switch and a promoted backup resumes
        // in the same scheme at the same point of the commit order.
        for note in self.sched.take_switch_notes() {
            if let Some(session) = &mut self.session {
                session.mark_scheme_switch(SchemeSwitch {
                    epoch: note.epoch,
                    scheme: note.scheme,
                });
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
                    let shipped = self.end_txn(node, txn, result.is_committed(), now, out);
                    let owed = Owed::Result {
                        client,
                        txn,
                        result,
                    };
                    self.owe(node.group, shipped, owed, out);
                }
                PartitionOut::ToCoordinator { dest, response } => {
                    out.push(node.response(dest, response));
                }
            }
        }
        self.scratch = scratch;
        cpu
    }

    /// Fault injection: true, once, when the threshold-th record has
    /// shipped.
    fn crash_due(&mut self) -> bool {
        let due =
            matches!((self.crash_after, &self.session), (Some(t), Some(s)) if s.shipped() >= t);
        if due {
            self.crash_after = None;
        }
        due
    }

    /// Hand a fragment to the scheduler (recording it for replication
    /// first) — the single admission point for direct, sequenced, and
    /// log-released fragments.
    fn admit(&mut self, task: FragmentTask<E::Fragment>, engine: &mut E, now: Nanos) {
        if let Some(session) = &mut self.session {
            session.record_fragment(&task);
        }
        self.sched.on_fragment(task, engine, now, &mut self.outbox);
    }

    /// The transaction ended here. A commit appends its record to the
    /// durable log and ships it to every backup, and returns the record's
    /// seq and log position for the commit gate; an abort forgets its
    /// fragments. `None` when no record was made (an abort, replication and
    /// durability off, or nothing of the transaction ran here).
    fn end_txn(
        &mut self,
        node: &mut Node<E>,
        txn: TxnId,
        commit: bool,
        now: Nanos,
        out: &mut Vec<OutMsg<E>>,
    ) -> Option<(u64, Logged)> {
        let session = self.session.as_mut()?;
        if !commit {
            session.on_abort(txn);
            return None;
        }
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
        let (group, from_slot) = (node.group, node.slot);
        let ship = |slot, record| OutMsg {
            dest: ActorId::Replica(group, slot),
            msg: Msg::Commit { from_slot, record },
        };
        let mut targets = self.gate.targets();
        if let Some(last) = targets.next_back() {
            node.retired.repl.records_shipped += 1;
            for slot in targets {
                out.push(ship(slot, record.clone()));
            }
            out.push(ship(last, record));
        }
        Some((seq, logged))
    }

    /// Owe `owed` from `group`: hold it until record `shipped` clears the
    /// commit gate, releasing what the gate lets out now, or send it at
    /// once when the transaction made no record.
    fn owe(
        &mut self,
        group: PartitionId,
        shipped: Option<(u64, Logged)>,
        owed: Owed<E::Output>,
        out: &mut Vec<OutMsg<E>>,
    ) {
        match shipped {
            Some((seq, logged)) => {
                self.gate.hold(seq, logged, owed);
                self.release(group, false, out);
            }
            None => out.push(owed_out(group, owed, true)),
        }
    }

    /// Run the commit gate's release; `log_event` when a sync completing
    /// is what moved it, so the results it lets out waited on the log.
    fn release(&mut self, group: PartitionId, log_event: bool, out: &mut Vec<OutMsg<E>>) {
        let released = self
            .gate
            .release(|owed, logged| out.push(owed_out(group, owed, logged)));
        if let Some(dur) = &mut self.dur {
            if log_event {
                dur.gc.counters.results_held += released.results;
            }
            dur.gc.counters.stalled_aborts += released.unlogged;
        }
    }

    /// See [`ReplicaActor::on_drained`].
    fn on_drained(&mut self, group: PartitionId, out: &mut Vec<OutMsg<E>>) {
        let Some(dur) = &mut self.dur else { return };
        if dur.gc.on_drained() == FlushDecision::SyncNow && dur.log.sync().is_ok() {
            dur.gc.on_synced();
            self.gate.synced(dur.log.durable());
            self.release(group, true, out);
        }
    }

    /// Tick-driven stall guard: if the oldest unsynced append blew past the
    /// sync deadline, abandon everything appended so far — the commit gate
    /// releases what it held for those records as not logged (results as
    /// `LogStalled`, acks with `logged: false`, so the coordinator releases
    /// its results that way rather than wedge 2PC) once they are on the
    /// backups — and wipe the batch slate so the log can accept new work.
    fn check_log_stall(&mut self, group: PartitionId, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        let Some(dur) = &mut self.dur else { return };
        if !dur.gc.stalled(now) {
            return;
        }
        self.gate.abandon(dur.log.appended());
        let released = self
            .gate
            .release(|owed, logged| out.push(owed_out(group, owed, logged)));
        dur.gc.on_stall_abort(released.unlogged);
        dur.gc.counters.results_held += released.results;
    }

    /// Close the durable log cleanly at teardown: one final sync so the
    /// image's durable prefix covers everything appended before shutdown
    /// (held results were all released during the run; this only settles
    /// the trailing partial batch). Returns the log's image.
    fn close_log(&mut self) -> Option<Vec<u8>> {
        let dur = self.dur.as_mut()?;
        if dur.gc.pending() > 0 && dur.log.sync().is_ok() {
            dur.gc.on_synced();
        }
        Some(dur.log.crash_image())
    }

    /// The injected crash: flush what the commit gate holds, bounce
    /// everything still in flight, notify the membership actor (the
    /// "failure detector"), and go dark.
    fn crash(self, node: &mut Node<E>, now: Nanos, out: &mut Vec<OutMsg<E>>) {
        // Every held record already shipped (failure injection requires
        // replication), so the backups will have it: release rather than
        // lose what it gates. The log dies with the node, and a crashed
        // primary falls back on replication as its durability story.
        let group = node.group;
        self.gate
            .flush(|owed| out.push(owed_out(group, owed, true)));
        if let Some(mut session) = self.session {
            for (_txn, frags) in session.take_in_flight() {
                if let Some(task) = frags.first() {
                    node.bounce(task, out);
                }
            }
        }
        node.retired.repl.failed_at_ns = now.0;
        out.push(OutMsg {
            dest: ActorId::Membership,
            msg: Msg::PrimaryFailed { partition: group },
        });
    }
}

impl Backup {
    fn step<E: ExecutionEngine>(
        &mut self,
        node: &mut Node<E>,
        msg: Msg<E>,
        out: &mut Vec<OutMsg<E>>,
    ) {
        match msg {
            Msg::Commit { from_slot, record } => {
                // Propagate, don't assert: a replay failure lands in the
                // counters and fails the run's health checks.
                let _ = self.replica.apply(&mut node.engine, &record);
                out.push(OutMsg {
                    dest: ActorId::Replica(node.group, from_slot),
                    msg: Msg::CommitAck {
                        slot: node.slot,
                        seq: record.seq.min(self.replica.watermark()),
                    },
                });
            }
            // A fragment can only arrive here through the membership flip
            // racing ahead of the promotion, which the coordinator's
            // emission order prevents; bounce defensively so the client
            // retries rather than hangs.
            Msg::Fragment(task) => node.bounce(&task, out),
            // Late decisions/acks/ticks/epoch logs for a role this node no
            // longer plays: drop. (An epoch log can only arrive here
            // through the membership flip racing ahead of the promotion;
            // the unsynced promoted gate passes the affected fragments
            // through when they are redelivered.)
            Msg::Decision(..) | Msg::CommitAck { .. } | Msg::Tick | Msg::EpochLog(_) => {}
            // Serve a sibling's recovery from backup state (only the
            // primary is asked in the current protocol, but the answer is
            // just as correct from any live replica).
            Msg::FetchState { requester_slot } => {
                node.send_snapshot(requester_slot, self.replica.watermark(), out)
            }
            _ => debug_assert!(false, "unexpected message at backup {}", node.group),
        }
    }

    /// Become the group's primary under `epoch` at `now`. Every record the
    /// dead primary shipped is already applied (it was queued ahead of
    /// this promotion on FIFO links): resume its log without a gap. The
    /// failed node becomes a ship target only once it rejoins (via
    /// FetchState).
    fn promote<E>(mut self, node: &mut Node<E>, epoch: u32, now: Nanos) -> Primary<E>
    where
        E: ExecutionEngine + Send + 'static,
        E::Fragment: Send,
        E::Output: Send,
    {
        let system = &node.system;
        let watermark = self.replica.watermark();
        node.epoch = epoch;
        node.retired.repl.promotions += 1;
        Primary {
            // Adaptive runs: the commit log says which scheme was in force
            // at the watermark; resume there so failover lands in the
            // same scheme at the same transition epoch.
            sched: PartitionScheduler::new(system, node.group, self.replica.scheme_switch(), now),
            session: Some(ReplicationSession::resume_from(watermark)),
            // Surviving sibling backups hold the same record prefix this
            // node does.
            gate: CommitGate::new(
                (1..system.replication).filter(|&s| s != node.slot),
                watermark,
            ),
            applied: self.replica.take_applied_txns(),
            // The dead primary's merge position and held fragments are
            // lost with it: start unsynced and join the merge at the first
            // complete post-failover era.
            seq: system
                .sequencing_active()
                .then(|| PartitionSequencer::promoted(node.group, system.coordinators.max(1))),
            dur: self.dur,
            fenced: (0..system.coordinators.max(1)).map(CoordinatorId).collect(),
            crash_after: None,
            outbox: Outbox::new(system.costs),
            scratch: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::{AdaptiveConfig, Scheme};
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
        let counters = node.into_parts().counters.dur;
        assert_eq!((counters.syncs, counters.stalled_aborts), (1, 2));
    }

    /// One group of two nodes, every role-owned counter on (replication,
    /// durability, sequencing, adaptive): slot 0 commits as the primary,
    /// crashes, rejoins and ends as a backup; slot 1 applies as a backup,
    /// is promoted and commits as the primary. Each node's report counts
    /// what each of its roles did exactly once.
    #[test]
    fn every_role_change_reports_each_counter_once() {
        type Node = ReplicaActor<MicroEngine>;
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(1)
            .with_clients(1)
            .with_replication(2)
            .with_durability(DurabilityConfig::default())
            .with_sequencing(true)
            .with_adaptive(AdaptiveConfig::Model {
                margin: 0.1,
                window: 1_000,
            });
        let group = PartitionId(0);
        let mut workload = MicroWorkload::new(MicroConfig {
            partitions: 1,
            clients: 1,
            ..Default::default()
        });
        let mut nodes: Vec<Node> = (0..2)
            .map(|slot| {
                let engine = workload.build_engine(group);
                Node::new(group, slot, &system, engine, Box::new(MemLog::new()), None)
            })
            .collect();
        let ctl = RunControl::new(1, RunMode::FixedRequests(1));
        let mut clock = 0;
        // Deliver `msg` to `slot` one microsecond after the last delivery,
        // then route the mail between the two nodes (closing each node's
        // log batch whenever the mail runs dry) until none is left;
        // return what left the group.
        let mut send = |nodes: &mut Vec<Node>, slot: usize, msg: Msg<MicroEngine>| {
            let mut mail = vec![OutMsg {
                dest: ActorId::Replica(group, slot as u32),
                msg,
            }];
            let mut external = Vec::new();
            while !mail.is_empty() {
                let mut next = Vec::new();
                for m in mail {
                    match m.dest {
                        ActorId::Replica(_, s) => {
                            clock += 1;
                            let now = Nanos::from_micros(clock);
                            nodes[s as usize].step(m.msg, now, &ctl, &mut next);
                        }
                        _ => external.push(m),
                    }
                }
                for node in nodes.iter_mut() {
                    node.on_drained(&mut next);
                }
                mail = next;
            }
            (external, Nanos::from_micros(clock))
        };
        let mut task = |seq: u32, mp: bool| {
            let Request::SinglePartition { fragment, .. } = workload.next_request(ClientId(0))
            else {
                panic!("one partition: every request is single-partition");
            };
            Msg::Fragment(FragmentTask {
                txn: TxnId::new(ClientId(0), seq),
                coordinator: match mp {
                    true => CoordinatorRef::Central(CoordinatorId(0)),
                    false => CoordinatorRef::Client(ClientId(0)),
                },
                client: ClientId(0),
                fragment,
                multi_partition: mp,
                last_fragment: true,
                round: 0,
                can_abort: false,
            })
        };
        let decide = |seq: u32| {
            let txn = TxnId::new(ClientId(0), seq);
            let ack_to = Some(CoordinatorRef::Central(CoordinatorId(0)));
            Msg::Decision(Decision { txn, commit: true }, ack_to)
        };
        let committed = |out: &[OutMsg<MicroEngine>]| {
            let done = |m: &&OutMsg<MicroEngine>| match &m.msg {
                Msg::Result { result, .. } => result.is_committed(),
                Msg::DecisionAck { logged, .. } => *logged,
                _ => false,
            };
            out.iter().filter(done).count()
        };

        // Slot 0 commits one single- and one multi-partition transaction;
        // slot 1 applies both records.
        assert_eq!(committed(&send(&mut nodes, 0, task(1, false)).0), 1);
        send(&mut nodes, 0, task(2, true));
        assert_eq!(committed(&send(&mut nodes, 0, decide(2)).0), 1);
        let (_, crashed_at) = send(&mut nodes, 0, Msg::Crash);

        // Slot 1 is promoted and commits two more on its own.
        let (_, promoted_at) = send(&mut nodes, 1, Msg::Promote { epoch: 1 });
        let shard = CoordinatorId(0);
        send(&mut nodes, 1, Msg::RoutingApplied { shard });
        assert_eq!(committed(&send(&mut nodes, 1, task(3, false)).0), 1);
        send(&mut nodes, 1, task(4, true));
        assert_eq!(committed(&send(&mut nodes, 1, decide(4)).0), 1);

        // Slot 0 rejoins from slot 1's snapshot and applies its next record.
        let rejoin = Msg::Rejoin {
            partition: group,
            slot: 0,
            epoch: 1,
            primary_slot: 1,
        };
        send(&mut nodes, 0, rejoin);
        assert!(ctl.recovery_done.load(Ordering::SeqCst));
        let (out, last) = send(&mut nodes, 1, task(5, false));
        assert_eq!(committed(&out), 1);

        let b = nodes.pop().expect("slot 1").into_parts();
        let a = nodes.pop().expect("slot 0").into_parts();
        assert!(!a.is_primary && a.is_backup && b.is_primary && !b.is_backup);
        let residency =
            |p: &ReplicaParts<MicroEngine>| p.counters.adaptive.residency_ns.iter().sum::<u64>();
        // Slot 0: its primary's counters (retired by the crash) and those
        // of the backup it rejoined as (retired at teardown).
        assert_eq!(
            (a.counters.sched.committed, a.counters.dur.records_appended),
            (2, 2)
        );
        assert_eq!(a.counters.dur.syncs, 2);
        assert_eq!(a.counters.seq.passthrough, 1);
        assert_eq!(residency(&a), crashed_at.0);
        assert_eq!(a.counters.repl.records_shipped, 2);
        assert_eq!(
            (a.counters.repl.records_applied, a.counters.repl.recoveries),
            (1, 1)
        );
        assert_eq!(
            (a.counters.repl.promotions, a.counters.repl.snapshots_served),
            (0, 0)
        );
        assert!(a.log_image.is_none());
        // Slot 1: its backup's (retired by the promotion) and its
        // primary's (retired at teardown).
        assert_eq!(b.counters.repl.records_applied, 2);
        assert_eq!(
            (b.counters.repl.promotions, b.counters.repl.snapshots_served),
            (1, 1)
        );
        assert_eq!(b.counters.repl.records_shipped, 1);
        assert_eq!(
            (b.counters.sched.committed, b.counters.dur.records_appended),
            (3, 3)
        );
        assert_eq!(b.counters.dur.syncs, 3);
        assert_eq!(b.counters.seq.passthrough, 1);
        // Its scheme residency runs from its promotion, not from 0.
        assert_eq!(residency(&b), last.0 - promoted_at.0);
        assert!(b.log_image.is_some());
    }

    /// A promoted primary tells a stray commit (for a transaction it never
    /// saw, which died with its predecessor) from a known one by what its
    /// scheduler's `on_decision` returns. The stray is never acked: the
    /// ack would close the in-doubt window the coordinator is about to
    /// re-deliver into. A known commit is acked once its record is on the
    /// surviving backup, behind the commit gate.
    #[test]
    fn a_promoted_primary_acks_a_known_commit_behind_its_gate_and_never_a_stray() {
        type Node = ReplicaActor<MicroEngine>;
        for scheme in [Scheme::Speculative, Scheme::Locking] {
            let system = SystemConfig::new(scheme)
                .with_partitions(1)
                .with_clients(1)
                .with_replication(3);
            let group = PartitionId(0);
            let mut workload = MicroWorkload::new(MicroConfig {
                partitions: 1,
                clients: 1,
                ..Default::default()
            });
            let mut nodes: Vec<Node> = (0..3)
                .map(|slot| {
                    let engine = workload.build_engine(group);
                    Node::new(group, slot, &system, engine, Box::new(MemLog::new()), None)
                })
                .collect();
            let ctl = RunControl::new(1, RunMode::FixedRequests(1));
            let now = Nanos::from_micros(1);
            let step = |node: &mut Node, msg: Msg<MicroEngine>| {
                let mut out = Vec::new();
                node.step(msg, now, &ctl, &mut out);
                node.on_drained(&mut out);
                out
            };
            let coordinator = CoordinatorRef::Central(CoordinatorId(0));
            let decide = |seq: u32| {
                let txn = TxnId::new(ClientId(0), seq);
                Msg::Decision(Decision { txn, commit: true }, Some(coordinator))
            };
            let acks = |out: &[OutMsg<MicroEngine>]| {
                let acked = |m: &OutMsg<MicroEngine>| match m.msg {
                    Msg::DecisionAck { txn, .. } => Some(txn.seq()),
                    _ => None,
                };
                out.iter().filter_map(acked).collect::<Vec<_>>()
            };

            // Slot 1 takes over from slot 0, which dies having decided
            // transaction 1: slot 1 never saw it.
            step(&mut nodes[1], Msg::Promote { epoch: 1 });
            let shard = CoordinatorId(0);
            step(&mut nodes[1], Msg::RoutingApplied { shard });
            let out = step(&mut nodes[1], decide(1));
            assert!(
                acks(&out).is_empty(),
                "{scheme:?}: a stray commit is not acked"
            );

            // Transaction 2 runs on slot 1; its commit ships to slot 2, and
            // the ack waits for slot 2's answer.
            let Request::SinglePartition { fragment, .. } = workload.next_request(ClientId(0))
            else {
                panic!("one partition: every request is single-partition");
            };
            let task = FragmentTask {
                txn: TxnId::new(ClientId(0), 2),
                coordinator,
                client: ClientId(0),
                fragment,
                multi_partition: true,
                last_fragment: true,
                round: 0,
                can_abort: false,
            };
            step(&mut nodes[1], Msg::Fragment(task));
            let mut mail = step(&mut nodes[1], decide(2));
            assert!(
                acks(&mail).is_empty(),
                "{scheme:?}: the ack waits at the gate"
            );
            let mut external = Vec::new();
            while !mail.is_empty() {
                let mut next = Vec::new();
                for m in mail {
                    match m.dest {
                        ActorId::Replica(_, s) => next.extend(step(&mut nodes[s as usize], m.msg)),
                        _ => external.push(m),
                    }
                }
                mail = next;
            }
            assert_eq!(
                acks(&external),
                [2],
                "{scheme:?}: the known commit is acked"
            );
            let parts = nodes.remove(1).into_parts();
            assert_eq!(parts.counters.sched.stray_decisions, 1, "{scheme:?}");
            assert_eq!(parts.counters.sched.committed, 1, "{scheme:?}");
        }
    }
}
