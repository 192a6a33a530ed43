//! A central coordinator shard (paper §3.3) with speculative-result
//! handling (§4.2.2).
//!
//! Multi-partition transactions under the blocking and speculative schemes
//! flow through a central coordinator, which assigns them a global order
//! (their dispatch order), drives their rounds, and runs two-phase commit
//! with the prepare piggybacked on the final round's fragments. The paper
//! evaluates a single coordinator process; here the coordinator is
//! **sharded**: clients are statically partitioned across N shards
//! (`client % N`), each shard an independent [`Coordinator`] with its own
//! 2PC and speculation-chain state. Shards never talk to each other —
//! §4.2.2's dependency chains are only valid within one shard, and
//! partitions enforce that by blocking a multi-partition arrival behind a
//! different shard's chain (see `speculative.rs`); the shards break
//! residual cross-partition deadlocks by expiring stalled transactions
//! ([`Coordinator::expire_stalled`] with the retryable
//! `CrossCoordinator`).
//!
//! # Membership updates and the 2PC in-doubt window
//!
//! Failover membership/epochs are owned by the separate control-plane
//! [`crate::membership::MembershipCore`]; every shard consumes its
//! epoch-stamped updates via [`Coordinator::on_partition_failed`], aborting
//! in-flight transactions that touched the dead node.
//!
//! A commit decision still in flight to a dying primary is the classic 2PC
//! in-doubt window: under commit-order log shipping the transaction's
//! fragments died with the node, so without help the promoted backup would
//! resolve it as "never happened" while the other participants keep it.
//! The shard closes that window with **commit acknowledgements**: when
//! in-doubt tracking is on (failover runs), it retains every committed
//! multi-partition transaction's dispatched fragments until each
//! participant acks the commit decision
//! ([`Coordinator::on_decision_ack`]); a membership update re-delivers the
//! unacknowledged fragments to the promoted primary, which re-executes
//! them, votes, and is answered with the (already global) commit.
//!
//! # Speculative results
//!
//! Partitions may return results tagged `depends_on = (T, attempt)`: the
//! result is only valid if execution attempt `attempt` of transaction `T`
//! at that partition commits. The coordinator keeps one record of how each
//! recent transaction was decided (its `decided` map of `Decided`: the
//! committed attempt per partition, or an abort) and *settles* a response
//! against it before using it:
//!
//! * no dependency → settled;
//! * dependency committed with the same per-partition attempt → settled;
//! * dependency committed, but cited at a newer membership epoch than the
//!   recorded attempt (a re-execution at a promoted primary, not voted
//!   yet; see [`stamp_attempt`]) → hold;
//! * dependency aborted, or committed under a different attempt → the
//!   response is **stale** (its execution was squashed); discard it and
//!   wait for the partition's re-sent response;
//! * dependency still undecided → hold.
//!
//! Rounds only advance on fully settled responses, and commit/abort
//! decisions are only taken on settled votes. This makes cascading aborts
//! safe without any round rewinding: nothing downstream ever consumes data
//! that can later be invalidated.
//!
//! The coordinator's CPU cost per message is what limits speculation at
//! high multi-partition fractions (paper §5.1: "the central coordinator
//! uses 100% of the CPU and cannot handle more messages").

use crate::procedure::{Procedure, RoundOutputs, Step};
use crate::sequencer::{EpochLog, EpochLogDest};
use hcc_common::{
    AbortReason, ClientId, CoordinatorId, CoordinatorRef, CostModel, Decision, FragmentResponse,
    FragmentTask, FxHashMap, Nanos, PartitionId, TxnId, TxnResult, Vote,
};
use std::collections::VecDeque;

/// A reported execution attempt: the partition scheduler's count below this
/// bit, the reporting node's membership epoch above. A promoted primary
/// counts attempts from 0 again; the epoch tells its executions from the
/// dead primary's.
const EPOCH_SHIFT: u32 = 24;

/// `attempt` as a node at membership `epoch` reports it (a response's
/// `attempt` and `depends_on`); epoch 0 leaves it unchanged.
pub fn stamp_attempt(attempt: u32, epoch: u32) -> u32 {
    debug_assert!(attempt < 1 << EPOCH_SHIFT && epoch < 1 << (32 - EPOCH_SHIFT));
    attempt | epoch << EPOCH_SHIFT
}

/// The membership epoch a reported attempt was stamped with.
fn epoch_of(attempt: u32) -> u32 {
    attempt >> EPOCH_SHIFT
}

/// A decision notification broadcast to peer coordinator shards when
/// cross-shard sequencing is on: sequenced speculation chains legally span
/// shards, so a shard can hold a response whose `depends_on` names a
/// *peer's* transaction — it settles that dependency from these notes
/// (fed into [`Coordinator::on_peer_decision`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerNote {
    pub txn: TxnId,
    pub commit: bool,
    /// Per-partition committed execution attempts (empty for aborts) —
    /// the same record the deciding shard keeps for its own dependency
    /// validation.
    pub attempts: Vec<(PartitionId, u32)>,
}

/// Messages emitted by the coordinator, routed by the driver.
#[derive(Debug)]
pub enum CoordOut<F, R> {
    Fragment(PartitionId, FragmentTask<F>),
    /// A 2PC decision for a participant. The third field is the
    /// coordinator (central shard or client driver) that wants a
    /// [`Coordinator::on_decision_ack`] back once the partition has
    /// processed a *commit* — in-doubt tracking for failover runs, and
    /// result-holding for durability runs; `None` for aborts and runs
    /// with neither.
    Decision(PartitionId, Decision, Option<CoordinatorRef>),
    ClientResult {
        client: ClientId,
        txn: TxnId,
        result: TxnResult<R>,
    },
    /// A decision notification for a peer shard (sequencing runs only;
    /// see [`PeerNote`]).
    PeerNote(CoordinatorId, PeerNote),
    /// A closed sequencing epoch log for a partition or a peer shard
    /// (sequencing runs only). The coordinator actor builds it from its
    /// [`crate::sequencer::ShardSequencer`]'s closed epochs, not the
    /// [`Coordinator`] state machine — it rides `CoordOut` so the one
    /// routing of coordinator output (and its FIFO ordering) applies.
    EpochLog(EpochLogDest, EpochLog),
}

hcc_common::counters! {
    /// Counters for coordinator behaviour (saturation analysis, tests); the
    /// drivers merge them across shards.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CoordCounters {
        count invocations: u64,
        count responses: u64,
        count stale_responses_discarded: u64,
        count commits: u64,
        count aborts: u64,
        count messages_sent: u64,
        count rounds_dispatched: u64,
        /// Transactions aborted because a participant's primary failed
        /// (failover; the clients transparently retry them).
        count failover_aborts: u64,
        /// Commit-decision acknowledgements received (in-doubt tracking).
        count decision_acks: u64,
        /// Committed results parked until every participant acknowledged the
        /// commit decision (durable-release mode).
        count results_held: u64,
        /// In-doubt committed transactions re-delivered to a promoted primary
        /// after a failover (the 2PC in-doubt window being closed).
        count in_doubt_redeliveries: u64,
        /// Re-delivered commits the new primary executed and was told to
        /// commit — the window actually closed, not just attempted.
        count in_doubt_commits_recovered: u64,
    }
}

struct MpTxn<F, R> {
    client: ClientId,
    procedure: Box<dyn Procedure<F, R>>,
    can_abort: bool,
    /// When the transaction was invoked (for participant-failure expiry).
    started: Nanos,
    /// Settled outputs of completed rounds.
    settled_rounds: Vec<RoundOutputs<R>>,
    /// Participants of the current round.
    participants: Vec<PartitionId>,
    /// All partitions that have ever been sent a fragment (abort targets).
    /// A transaction touches a handful of partitions, so a linear-scanned
    /// `Vec` beats a hash set here (and iterates deterministically).
    dispatched: Vec<PartitionId>,
    /// Latest response per participant for the current round, keyed
    /// linearly by partition for the same reason.
    responses: Vec<(PartitionId, FragmentResponse<R>)>,
    /// Every dispatched fragment, retained for in-doubt redelivery after a
    /// failover. Empty unless in-doubt tracking is on.
    sent: Vec<(PartitionId, FragmentTask<F>)>,
    round: u32,
    is_final: bool,
}

impl<F, R> MpTxn<F, R> {
    #[inline]
    fn response(&self, p: PartitionId) -> &FragmentResponse<R> {
        &self
            .responses
            .iter()
            .find(|(q, _)| *q == p)
            .expect("response present for participant")
            .1
    }

    /// Insert or overwrite the response from `resp.partition`.
    fn set_response(&mut self, resp: FragmentResponse<R>) {
        match self
            .responses
            .iter_mut()
            .find(|(q, _)| *q == resp.partition)
        {
            Some(slot) => slot.1 = resp,
            None => self.responses.push((resp.partition, resp)),
        }
    }

    fn note_dispatched(&mut self, p: PartitionId) {
        if !self.dispatched.contains(&p) {
            self.dispatched.push(p);
        }
    }

    /// The current round's settled outputs, in participant order.
    fn outputs(&self) -> RoundOutputs<R>
    where
        R: Clone,
    {
        let by_partition = self.participants.iter().map(|p| {
            let payload = self.response(*p).payload.clone();
            (*p, payload.expect("settled Ok response"))
        });
        RoundOutputs {
            by_partition: by_partition.collect(),
        }
    }
}

/// The per-transaction vectors of [`MpTxn`] (`settled_rounds`,
/// `participants`, `dispatched`, `responses`), emptied when a transaction
/// is decided and handed to the next invocation, so a transaction costs
/// the coordinator no allocation for its own bookkeeping.
type TxnBuffers<R> = (
    Vec<RoundOutputs<R>>,
    Vec<PartitionId>,
    Vec<PartitionId>,
    Vec<(PartitionId, FragmentResponse<R>)>,
);

/// How a recently decided transaction ended, as dependency validation and
/// late votes read it.
enum Decided {
    /// The execution attempt committed at each partition.
    Committed(Vec<(PartitionId, u32)>),
    /// Aborted. `Some` is a presumed abort (a failover or an expiry): some
    /// participants may never have *executed* the transaction (its fragment
    /// still queued behind other work), and a decision for it would be
    /// unintelligible to their scheduler, so only the participants that
    /// had responded were told. The list holds the participants told so
    /// far; a later vote from any other is answered with the abort then,
    /// and a second response from one already told (a squashed
    /// re-execution racing the decision) draws nothing, where a duplicate
    /// decision could only count as a stray.
    Aborted(Option<Vec<PartitionId>>),
}

/// How many decided transactions to remember for dependency validation.
/// In-flight dependencies only reference recently decided transactions
/// (the window is bounded by network latency × throughput); 1 << 16 is
/// orders of magnitude beyond that for any configuration we run.
const HISTORY_LIMIT: usize = 1 << 16;

/// A committed multi-partition transaction whose commit decision has not
/// yet been acknowledged by every participant — the 2PC in-doubt window.
struct InDoubt<F, R> {
    /// Participants that have not acked the commit decision yet.
    unacked: Vec<PartitionId>,
    /// Every fragment dispatched to any participant, in dispatch order,
    /// for redelivery to a promoted primary. Empty unless in-doubt
    /// tracking (failover) is on.
    tasks: Vec<(PartitionId, FragmentTask<F>)>,
    /// The client result, parked until the window closes (durable-release
    /// mode: participants ack only once the commit record is durable, so
    /// releasing here means the commit survives a whole-group crash).
    held: Option<(ClientId, TxnResult<R>)>,
}

/// An in-doubt commit re-delivered to a promoted primary: the shard waits
/// for the new primary's vote and answers it with the (already decided)
/// commit. The vote may carry a speculative dependency on the new
/// primary's chain, so it settles through the normal dependency check; a
/// held vote is parked here until the dependency decides.
///
/// Multi-round transactions are re-driven **round by round** — the next
/// retained round ships when the previous round's response arrives, just
/// like the original dispatch. Sending every round up front would race
/// the scheduler's stale-continuation drop (a round > 0 fragment for a
/// transaction still queued unexecuted is discarded).
struct Redelivery<R> {
    partition: PartitionId,
    parked: Option<FragmentResponse<R>>,
    /// Highest (round, attempt) redelivered so far, for the round-driven
    /// re-drive (a squash resend carries a new attempt and needs its
    /// continuation re-sent).
    sent: (u32, u32),
}

/// The coordinator state machine.
///
/// Constructed as [`Coordinator::central`] for the shared central
/// coordinator (blocking and speculative schemes) or as
/// [`Coordinator::client_driver`] for a client coordinating its own
/// multi-partition transactions (locking scheme, §4.3 — which "sends
/// multi-partition transactions directly to the partitions, without going
/// through the central coordinator"). The logic is identical; only the
/// `coordinator` field stamped on outgoing fragments and the per-message
/// CPU cost differ.
pub struct Coordinator<F, R> {
    /// Who we are, as named in outgoing fragment tasks.
    coord_ref: CoordinatorRef,
    /// CPU charged per message handled.
    per_msg: Nanos,
    txns: FxHashMap<TxnId, MpTxn<F, R>>,
    /// Buffers of decided transactions awaiting reuse; never more than the
    /// peak number of transactions in flight.
    spare: Vec<TxnBuffers<R>>,
    /// How each recent transaction (this shard's and, in sequencing runs,
    /// its peers') was decided; trimmed in `history_order`.
    decided: FxHashMap<TxnId, Decided>,
    history_order: VecDeque<TxnId>,
    /// Scratch buffer for the sorted settle sweep (reused across calls).
    scan: Vec<TxnId>,
    /// Membership epochs *applied* from the control plane's updates
    /// (`MembershipCore` is the authority; this is the shard's view).
    /// Absent = epoch 0 (the initial primary).
    epochs: FxHashMap<PartitionId, u32>,
    /// Whether to retain dispatched fragments and demand commit-decision
    /// acks — the machinery that closes the 2PC in-doubt window. Enabled
    /// by drivers for runs with failure injection; off otherwise so the
    /// hot path pays nothing for it.
    track_in_doubt: bool,
    /// Whether committed results are parked until every participant acks
    /// its commit decision. Durability runs enable this so a client never
    /// observes a commit that is not yet in every participant's durable
    /// log (partitions defer the ack until the record is synced).
    hold_results: bool,
    /// Committed transactions awaiting commit-decision acks.
    in_doubt: FxHashMap<TxnId, InDoubt<F, R>>,
    /// In-doubt commits re-delivered to a promoted primary, awaiting its
    /// re-vote.
    redeliveries: FxHashMap<TxnId, Redelivery<R>>,
    /// Peer shards to notify of every decision ([`PeerNote`]); non-empty
    /// only when cross-shard sequencing is on and there is more than one
    /// shard.
    peer_shards: Vec<CoordinatorId>,
    pub counters: CoordCounters,
    /// Virtual CPU consumed since the last drain.
    cpu: Nanos,
}

impl<F: Clone + std::fmt::Debug, R: Clone + std::fmt::Debug> Coordinator<F, R> {
    /// The paper's singleton central coordinator: shard 0 of 1, no
    /// in-doubt tracking.
    pub fn central(costs: CostModel) -> Self {
        Self::shard(costs, CoordinatorId(0), false)
    }

    /// One coordinator shard of N, optionally tracking in-doubt commits
    /// (failover runs).
    pub fn shard(costs: CostModel, id: CoordinatorId, track_in_doubt: bool) -> Self {
        let per_msg = costs.coord_per_msg;
        let mut c = Self::with_ref(CoordinatorRef::Central(id), per_msg);
        c.track_in_doubt = track_in_doubt;
        c
    }

    /// A client acting as its own coordinator (locking scheme).
    pub fn client_driver(costs: CostModel, client: ClientId) -> Self {
        let per_msg = costs.client_per_msg;
        Self::with_ref(CoordinatorRef::Client(client), per_msg)
    }

    fn with_ref(coord_ref: CoordinatorRef, per_msg: Nanos) -> Self {
        Coordinator {
            coord_ref,
            per_msg,
            txns: FxHashMap::default(),
            spare: Vec::new(),
            decided: FxHashMap::default(),
            history_order: VecDeque::new(),
            scan: Vec::new(),
            epochs: FxHashMap::default(),
            track_in_doubt: false,
            hold_results: false,
            in_doubt: FxHashMap::default(),
            redeliveries: FxHashMap::default(),
            peer_shards: Vec::new(),
            counters: CoordCounters::default(),
            cpu: Nanos::ZERO,
        }
    }

    /// Enable (or disable) durable result release: committed results are
    /// parked in the in-doubt window and emitted only once every
    /// participant has acknowledged its commit decision.
    pub fn set_hold_results(&mut self, on: bool) {
        self.hold_results = on;
    }

    /// Enable decision broadcast to peer shards (sequencing runs): every
    /// commit/abort this shard takes is also emitted as a
    /// [`CoordOut::PeerNote`] to each listed peer, so their dependency
    /// checks can settle cross-shard speculation chains.
    pub fn set_peer_broadcast(&mut self, mut peers: Vec<CoordinatorId>) {
        peers.sort_unstable();
        self.peer_shards = peers;
    }

    /// Whether this coordinator demands commit-decision acks at all.
    #[inline]
    fn wants_acks(&self) -> bool {
        self.track_in_doubt || self.hold_results
    }

    /// Build the decision message for one participant, requesting an ack
    /// for tracked commits.
    fn decision_out(&self, p: PartitionId, txn: TxnId, commit: bool) -> CoordOut<F, R> {
        let ack_to = (commit && self.wants_acks()).then_some(self.coord_ref);
        CoordOut::Decision(p, Decision { txn, commit }, ack_to)
    }

    pub fn pending(&self) -> usize {
        self.txns.len()
    }

    /// Drain accumulated virtual CPU (drivers advance the coordinator's
    /// busy-clock by this much).
    pub fn take_cpu(&mut self) -> Nanos {
        std::mem::replace(&mut self.cpu, Nanos::ZERO)
    }

    fn charge_msgs(&mut self, n: u64) {
        self.cpu += Nanos(self.per_msg.0 * n);
        self.counters.messages_sent += n;
    }

    /// Charge `n` driver-emitted messages (epoch-log broadcast fan-out) to
    /// this shard's clock and message counter. The sequencing layer lives
    /// in the driver, but its traffic is still this coordinator's work.
    pub fn charge_extra_msgs(&mut self, n: u64) {
        self.charge_msgs(n);
    }

    /// A client submitted a multi-partition transaction.
    pub fn on_invoke(
        &mut self,
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.on_invoke_at(txn, client, procedure, can_abort, Nanos::ZERO, out)
    }

    /// As [`on_invoke`](Coordinator::on_invoke), with an explicit clock
    /// reading so stalled transactions can be expired later.
    pub fn on_invoke_at(
        &mut self,
        txn: TxnId,
        client: ClientId,
        procedure: Box<dyn Procedure<F, R>>,
        can_abort: bool,
        now: Nanos,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.counters.invocations += 1;
        self.cpu += self.per_msg; // receive cost
        let Step::Round {
            fragments,
            is_final,
        } = procedure.step(&[])
        else {
            debug_assert!(false, "procedure with no work: {txn}");
            return;
        };
        debug_assert!(!fragments.is_empty(), "empty round-0 for {txn}");
        let (settled_rounds, participants, dispatched, responses) =
            self.spare.pop().unwrap_or_default();
        let entry = MpTxn {
            client,
            procedure,
            can_abort,
            started: now,
            settled_rounds,
            participants,
            dispatched,
            responses,
            sent: Vec::new(),
            round: 0,
            is_final,
        };
        self.txns.insert(txn, entry);
        self.dispatch(txn, fragments, is_final, out);
    }

    /// Send the current round of `txn` (already in `txns`): its fragments
    /// become the round's participants, go out as tasks (the 2PC prepare
    /// piggybacked when `is_final`), and are kept for in-doubt redelivery
    /// when that is tracked.
    fn dispatch(
        &mut self,
        txn: TxnId,
        fragments: Vec<(PartitionId, F)>,
        is_final: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        let t = self.txns.get_mut(&txn).expect("dispatching known txn");
        t.is_final = is_final;
        t.participants.clear();
        t.participants.extend(fragments.iter().map(|(p, _)| *p));
        for i in 0..t.participants.len() {
            let p = t.participants[i];
            t.note_dispatched(p);
        }
        // The 2PC prepare rides the final round, so every participant must
        // appear there (procedures pad with no-op fragments if needed).
        debug_assert!(
            !is_final || t.dispatched.iter().all(|p| t.participants.contains(p)),
            "final round of {txn} drops a participant"
        );
        let n = fragments.len() as u64;
        for (pid, fragment) in fragments {
            let task = FragmentTask {
                txn,
                coordinator: self.coord_ref,
                client: t.client,
                fragment,
                multi_partition: true,
                last_fragment: is_final,
                round: t.round,
                can_abort: t.can_abort,
            };
            if self.track_in_doubt {
                t.sent.push((pid, task.clone()));
            }
            out.push(CoordOut::Fragment(pid, task));
        }
        self.charge_msgs(n);
    }

    /// A partition responded to a fragment.
    pub fn on_response(&mut self, resp: FragmentResponse<R>, out: &mut Vec<CoordOut<F, R>>) {
        self.counters.responses += 1;
        self.cpu += self.per_msg;
        let Some(t) = self.txns.get_mut(&resp.txn) else {
            // Transaction already decided (e.g. vote-abort raced with a
            // held speculative response released later). Ignore — unless
            // it was aborted by a failover before this participant ever
            // executed it: its abort decision was deliberately withheld
            // (a decision for a never-executed transaction would be
            // unintelligible to the partition), so answer the vote with
            // presumed-abort now that the transaction is live there.
            if let Some(Decided::Aborted(Some(told))) = self.decided.get_mut(&resp.txn) {
                if told.contains(&resp.partition) {
                    self.counters.stale_responses_discarded += 1;
                    return;
                }
                told.push(resp.partition);
                out.push(self.decision_out(resp.partition, resp.txn, false));
                self.charge_msgs(1);
                return;
            }
            // An in-doubt commit re-delivered to a promoted primary: the
            // re-execution's vote-bearing response is answered with the
            // (already decided) commit once it settles.
            if let Some(rd) = self.redeliveries.get(&resp.txn) {
                if resp.partition == rd.partition {
                    if resp.vote.is_some() {
                        let completed = self.settle_redelivery(resp, out);
                        if completed {
                            // Dependents holding on the redelivery can
                            // settle now.
                            self.progress(out);
                        }
                    } else {
                        // Intermediate round of a multi-round redelivery:
                        // re-drive the next retained round (once per
                        // (round, attempt) — a squash re-executes earlier
                        // rounds under a new attempt and discards parked
                        // continuations, so those need re-sending too).
                        self.redrive_next_round(resp, out);
                    }
                }
            }
            return;
        };
        if resp.round != t.round {
            // A failover bounce is a failure *notification*, not a vote:
            // the dying node stamps it with whatever round it recorded
            // first, which for a multi-round transaction can trail the
            // coordinator's current round. Discarding it as stale would
            // leave the transaction waiting forever on a dead node — abort
            // it regardless of round.
            if matches!(resp.payload, Err(AbortReason::PartitionFailed)) {
                self.finish(resp.txn, Err(AbortReason::PartitionFailed), true, out);
                return;
            }
            // A response for an earlier round can arrive after a squash
            // (the partition re-executed round 0 while we already hold
            // settled round-0 data that... cannot happen: settling requires
            // commitment of the dependency, after which the execution is
            // never squashed). Treat as stale defensively.
            debug_assert!(resp.round <= t.round, "response from the future");
            self.counters.stale_responses_discarded += 1;
            return;
        }
        let txn = resp.txn;
        t.set_response(resp);
        // Fast path: every other pending transaction is quiescent (the
        // last settle sweep left them unable to act, and nothing has
        // changed for them since), so the full sorted sweep of the settle
        // loop is only needed once *this* transaction is **decided** —
        // only a commit/abort mutates the settle state other transactions
        // read. A round advance dispatches fragments but settles nothing,
        // so sweeping after it would provably find no work. Equivalent to
        // sweeping everything, minus the provable no-ops.
        if self.progress_one(txn, out) == Progress::Decided {
            // Finish what would have been the first full sweep: the
            // transactions sorted after this one, evaluated against the
            // new state — then iterate to fixpoint over ALL ids (a
            // smaller-id transaction may be waiting on this decision).
            self.scan.clear();
            let mut scan = std::mem::take(&mut self.scan);
            scan.extend(self.txns.keys().copied().filter(|t| *t > txn));
            scan.sort_unstable();
            for t in &scan {
                self.progress_one(*t, out);
            }
            self.scan = scan;
            self.progress(out);
        }
    }

    /// Dependency validity of one response.
    fn settled(&self, resp: &FragmentResponse<R>) -> Settle {
        match resp.depends_on {
            None => Settle::Settled,
            Some(dep) => {
                // A dependency on a transaction being *re-delivered* at
                // this partition must hold until the redelivery completes:
                // the global commit record predates the re-execution, so
                // settling against it would commit the dependent before
                // its predecessor is locally decided (breaking the
                // commit-at-head order at the promoted primary).
                if dep.txn != resp.txn
                    && self
                        .redeliveries
                        .get(&dep.txn)
                        .is_some_and(|rd| rd.partition == resp.partition)
                {
                    return Settle::Hold;
                }
                match self.decided.get(&dep.txn) {
                    Some(Decided::Committed(attempts)) => {
                        let committed_attempt = attempts
                            .iter()
                            .find(|(p, _)| *p == resp.partition)
                            .map(|(_, a)| *a);
                        match committed_attempt {
                            Some(attempt) if attempt == dep.attempt => Settle::Settled,
                            // Cited at a newer membership epoch than
                            // recorded: a peer's redelivered commit,
                            // re-executed at a promoted primary and not
                            // voted yet. Hold until its owner names the
                            // attempt that took its place.
                            Some(attempt) if epoch_of(dep.attempt) > epoch_of(attempt) => {
                                Settle::Hold
                            }
                            Some(_) => Settle::Stale,
                            None => Settle::Hold,
                        }
                    }
                    Some(Decided::Aborted(_)) => Settle::Stale,
                    // Undecided (pending) or beyond the history window; the
                    // window is far larger than any in-flight horizon, so
                    // this is a pending transaction: hold.
                    None => Settle::Hold,
                }
            }
        }
    }

    /// Try to advance every pending transaction (a commit/abort can settle
    /// other transactions' responses, so this loops to fixpoint).
    fn progress(&mut self, out: &mut Vec<CoordOut<F, R>>) {
        loop {
            // Only decisions mutate the state `settled()` reads, so only
            // they warrant another sweep.
            let mut decided = false;
            // Sorted sweep: the emission order of coordinator messages
            // must be a pure function of the run (determinism guarantee),
            // never of map iteration order. The id buffer is recycled
            // across calls.
            self.scan.clear();
            let mut scan = std::mem::take(&mut self.scan);
            scan.extend(self.txns.keys().copied());
            scan.sort_unstable();
            for txn in &scan {
                decided |= self.progress_one(*txn, out) == Progress::Decided;
            }
            self.scan = scan;
            // Decisions taken during the sweep may have settled a parked
            // redelivery vote — and a *completed* redelivery unblocks
            // dependents holding on it, so it warrants another sweep too.
            let redelivered = self.recheck_redeliveries(out);
            if !decided && !redelivered {
                return;
            }
        }
    }

    /// Ship the next retained round of a re-delivered multi-round
    /// transaction in response to the previous round's (voteless)
    /// response.
    fn redrive_next_round(&mut self, resp: FragmentResponse<R>, out: &mut Vec<CoordOut<F, R>>) {
        let txn = resp.txn;
        let next = (resp.round + 1, resp.attempt);
        let Some(rd) = self.redeliveries.get_mut(&txn) else {
            return;
        };
        if rd.sent >= next {
            return;
        }
        let Some(entry) = self.in_doubt.get(&txn) else {
            return;
        };
        let task = entry
            .tasks
            .iter()
            .find(|(p, t)| *p == resp.partition && t.round == next.0)
            .map(|(_, t)| t.clone());
        let Some(task) = task else {
            return;
        };
        rd.sent = next;
        out.push(CoordOut::Fragment(resp.partition, task));
        self.charge_msgs(1);
    }

    /// Answer a settled re-delivered vote with the already-global commit;
    /// park a held one until its dependency decides. Returns true when
    /// the redelivery completed (its entry was removed), which unblocks
    /// dependents holding on it.
    fn settle_redelivery(
        &mut self,
        resp: FragmentResponse<R>,
        out: &mut Vec<CoordOut<F, R>>,
    ) -> bool {
        let txn = resp.txn;
        match self.settled(&resp) {
            Settle::Settled => {
                // The new primary re-executed the committed work. A commit
                // vote closes the window; an abort vote means the
                // re-execution failed against the promoted state — answer
                // abort so the scheduler stays sane (counted implicitly by
                // `in_doubt_redeliveries - in_doubt_commits_recovered`).
                let commit = resp.vote == Some(Vote::Commit);
                out.push(self.decision_out(resp.partition, txn, commit));
                self.charge_msgs(1);
                if commit {
                    self.counters.in_doubt_commits_recovered += 1;
                    // The committed execution at this partition is now the
                    // *re-execution*: post-crash transactions chain on its
                    // attempt, so the dependency-validation record must
                    // name it (the pre-crash attempt died with the old
                    // primary).
                    if let Some(Decided::Committed(attempts)) = self.decided.get_mut(&txn) {
                        match attempts.iter_mut().find(|(p, _)| *p == resp.partition) {
                            Some(slot) => slot.1 = resp.attempt,
                            None => attempts.push((resp.partition, resp.attempt)),
                        }
                    }
                    // Peer shards validate dependencies on it too.
                    let notes = self.notify_peers(txn, out);
                    self.charge_msgs(notes);
                }
                self.redeliveries.remove(&txn);
                return true;
            }
            Settle::Hold => {
                if let Some(rd) = self.redeliveries.get_mut(&txn) {
                    rd.parked = Some(resp);
                }
            }
            Settle::Stale => {
                // The re-execution was squashed; the partition re-sends a
                // fresh vote.
                self.counters.stale_responses_discarded += 1;
            }
        }
        false
    }

    /// Re-evaluate parked redelivery votes after decisions changed the
    /// settle state; returns true if any redelivery completed.
    fn recheck_redeliveries(&mut self, out: &mut Vec<CoordOut<F, R>>) -> bool {
        if self.redeliveries.is_empty() {
            return false;
        }
        let mut any = false;
        let mut parked: Vec<TxnId> = self
            .redeliveries
            .iter()
            .filter(|(_, rd)| rd.parked.is_some())
            .map(|(t, _)| *t)
            .collect();
        parked.sort_unstable();
        for txn in parked {
            let Some(rd) = self.redeliveries.get_mut(&txn) else {
                continue;
            };
            let Some(resp) = rd.parked.take() else {
                continue;
            };
            any |= self.settle_redelivery(resp, out);
        }
        any
    }

    /// A participant acknowledged processing a commit decision: its share
    /// of the transaction is durably in its replica group's log, so it
    /// leaves the in-doubt window. In durable-release mode the final ack
    /// emits the parked client result. `logged` is false when the
    /// participant committed but could not append the record to its durable
    /// log: the chain is not wedged (the ack still counts), but the parked
    /// result is released as the retryable `LogStalled` — no client sees
    /// `Committed` for a transaction a participant's log does not hold.
    pub fn on_decision_ack(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        logged: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        self.counters.decision_acks += 1;
        self.cpu += self.per_msg;
        if let Some(d) = self.in_doubt.get_mut(&txn) {
            d.unacked.retain(|p| *p != partition);
            if let (false, Some((_, result))) = (logged, &mut d.held) {
                *result = TxnResult::Aborted(AbortReason::LogStalled);
            }
            if d.unacked.is_empty() {
                let entry = self.in_doubt.remove(&txn).expect("present above");
                if let Some((client, result)) = entry.held {
                    out.push(CoordOut::ClientResult {
                        client,
                        txn,
                        result,
                    });
                    self.charge_msgs(1);
                }
            }
        }
        // An ack also cancels a pending redelivery to that partition: the
        // partition provably has the commit (e.g. the promoted primary's
        // exactly-once guard recognized an already-replicated record).
        if self
            .redeliveries
            .get(&txn)
            .is_some_and(|rd| rd.partition == partition)
        {
            self.redeliveries.remove(&txn);
        }
    }

    /// Advance one transaction as far as its settled responses allow.
    fn progress_one(&mut self, txn: TxnId, out: &mut Vec<CoordOut<F, R>>) -> Progress {
        let Some(t) = self.txns.get(&txn) else {
            return Progress::None;
        };
        if t.responses.len() < t.participants.len() {
            return Progress::None;
        }
        // Classify responses. (`Vec::new` does not allocate until first
        // push, so the stale list is free on the common all-settled path.)
        let mut stale: Vec<PartitionId> = Vec::new();
        let mut all_settled = true;
        for p in &t.participants {
            let resp = t.response(*p);
            match self.settled(resp) {
                Settle::Settled => {}
                Settle::Hold => all_settled = false,
                Settle::Stale => stale.push(*p),
            }
        }
        if !stale.is_empty() {
            // Drop the stale responses (their executions were squashed);
            // the partitions re-send fresh ones.
            let t = self.txns.get_mut(&txn).unwrap();
            for p in stale {
                if let Some(i) = t.responses.iter().position(|(q, _)| *q == p) {
                    t.responses.swap_remove(i);
                }
            }
            self.counters.stale_responses_discarded += 1;
            return Progress::None;
        }
        if !all_settled {
            return Progress::None;
        }

        // All settled: abort if any participant failed or voted abort.
        let abort_reason = t.participants.iter().find_map(|p| {
            let resp = t.response(*p);
            match (&resp.payload, resp.vote) {
                (Err(r), _) => Some(*r),
                (_, Some(Vote::Abort(r))) => Some(r),
                _ => None,
            }
        });
        if let Some(reason) = abort_reason {
            // A `PartitionFailed` vote is a dead participant's bounce: the
            // others may hold the transaction queued, unexecuted.
            let presumed = reason == AbortReason::PartitionFailed;
            self.finish(txn, Err(reason), presumed, out);
            return Progress::Decided;
        }

        let t = self.txns.get_mut(&txn).unwrap();
        if t.is_final {
            debug_assert!(t
                .participants
                .iter()
                .all(|p| t.response(*p).vote == Some(Vote::Commit)));
            self.finish(txn, Ok(()), false, out);
            return Progress::Decided;
        }

        // Settle this round and dispatch the next.
        t.settled_rounds.push(t.outputs());
        t.responses.clear();
        t.round += 1;
        match t.procedure.step(&t.settled_rounds) {
            Step::Round {
                fragments,
                is_final,
            } => {
                self.counters.rounds_dispatched += 1;
                self.dispatch(txn, fragments, is_final, out);
                Progress::Dispatched
            }
            Step::Finish(_) => {
                debug_assert!(false, "procedure finished without a final round: {txn}");
                Progress::None
            }
        }
    }

    /// Decide a transaction: send decisions to its participants and the
    /// result to the client; record the decision for dependency checks.
    /// A `presumed` abort (failover, expiry) tells only the participants
    /// that executed the transaction, responding in some round; the rest
    /// are answered when their vote arrives (see [`Decided::Aborted`]).
    fn finish(
        &mut self,
        txn: TxnId,
        outcome: Result<(), AbortReason>,
        presumed: bool,
        out: &mut Vec<CoordOut<F, R>>,
    ) {
        let mut t = self.txns.remove(&txn).expect("finishing known txn");
        if presumed {
            let (responses, rounds) = (&t.responses, &t.settled_rounds);
            t.dispatched.retain(|p| {
                responses.iter().any(|(q, _)| q == p) || rounds.iter().any(|r| r.get(*p).is_some())
            });
        }
        t.dispatched.sort_unstable();
        let commit = outcome.is_ok();
        // A shard reads the record for dependency validation, late votes,
        // expiry, failover and peer notes. A client's own driver reads it
        // only to answer a late vote after a presumed abort (a dead
        // participant's bounce): the locking scheme emits no dependencies,
        // and no driver is expired, failed over or sent a peer note.
        if presumed || matches!(self.coord_ref, CoordinatorRef::Central(_)) {
            let decided = if commit {
                Decided::Committed(t.responses.iter().map(|(p, r)| (*p, r.attempt)).collect())
            } else {
                Decided::Aborted(presumed.then(|| t.dispatched.clone()))
            };
            self.decided.insert(txn, decided);
            self.history_order.push_back(txn);
        }
        let result = match outcome {
            Ok(()) => {
                self.counters.commits += 1;
                t.settled_rounds.push(t.outputs());
                match t.procedure.step(&t.settled_rounds) {
                    Step::Finish(r) => TxnResult::Committed(r),
                    Step::Round { .. } => {
                        debug_assert!(false, "procedure wants a round after final");
                        TxnResult::Aborted(AbortReason::User)
                    }
                }
            }
            Err(reason) => {
                self.counters.aborts += 1;
                if reason == AbortReason::PartitionFailed {
                    self.counters.failover_aborts += 1;
                }
                TxnResult::Aborted(reason)
            }
        };
        for p in &t.dispatched {
            out.push(self.decision_out(*p, txn, commit));
        }
        let mut msgs = t.dispatched.len() as u64;
        // Durable release parks a committed result until every
        // participant acks (i.e. has the record durably logged).
        let held = if commit && self.hold_results {
            self.counters.results_held += 1;
            Some((t.client, result))
        } else {
            out.push(CoordOut::ClientResult {
                client: t.client,
                txn,
                result,
            });
            msgs += 1;
            None
        };
        if commit && self.wants_acks() {
            // The transaction enters the 2PC in-doubt window until every
            // participant acks its commit decision.
            let entry = InDoubt {
                unacked: t.dispatched.clone(),
                tasks: std::mem::take(&mut t.sent),
                held,
            };
            self.in_doubt.insert(txn, entry);
        }
        msgs += self.notify_peers(txn, out);
        self.charge_msgs(msgs);
        self.gc();
        t.settled_rounds.clear();
        t.participants.clear();
        t.dispatched.clear();
        t.responses.clear();
        self.spare
            .push((t.settled_rounds, t.participants, t.dispatched, t.responses));
    }

    /// Broadcast this decision to peer shards (sequencing runs; no-op
    /// otherwise). Returns the number of messages emitted.
    fn notify_peers(&mut self, txn: TxnId, out: &mut Vec<CoordOut<F, R>>) -> u64 {
        if self.peer_shards.is_empty() {
            return 0;
        }
        let (commit, attempts) = match self.decided.get(&txn) {
            Some(Decided::Committed(attempts)) => (true, attempts.clone()),
            _ => (false, Vec::new()),
        };
        let peers = std::mem::take(&mut self.peer_shards);
        for k in &peers {
            out.push(CoordOut::PeerNote(
                *k,
                PeerNote {
                    txn,
                    commit,
                    attempts: attempts.clone(),
                },
            ));
        }
        let n = peers.len() as u64;
        self.peer_shards = peers;
        n
    }

    /// A peer shard decided one of its transactions ([`PeerNote`]): fold
    /// the outcome into this shard's dependency-validation history so
    /// responses holding on the peer's transaction can settle.
    pub fn on_peer_decision(&mut self, note: PeerNote, out: &mut Vec<CoordOut<F, R>>) {
        self.cpu += self.per_msg;
        // A commit can be noted again: its owner re-delivers it to a promoted
        // primary and says which attempt there is now the committed one.
        let decided = if note.commit {
            Decided::Committed(note.attempts)
        } else {
            Decided::Aborted(None)
        };
        if self.decided.insert(note.txn, decided).is_none() {
            self.history_order.push_back(note.txn);
        }
        self.gc();
        self.progress(out);
    }

    /// Abort transactions that have been pending longer than `timeout`,
    /// reporting `reason` to their clients — the recovery path for
    /// participant failure (§3.3, with the final `RemoteAbort`) and the
    /// distributed-deadlock breaker for cross-shard waits (with the
    /// retryable `CrossCoordinator`). Uses presumed-abort semantics:
    /// decisions go only to participants that have *executed* (responded);
    /// the rest are answered with presumed-abort when their response
    /// eventually arrives — a stalled transaction's fragment may still be
    /// queued unexecuted at a participant, where an eager decision would
    /// be an unintelligible stray. Returns the transactions aborted.
    pub fn expire_stalled(
        &mut self,
        now: Nanos,
        timeout: Nanos,
        reason: AbortReason,
        out: &mut Vec<CoordOut<F, R>>,
    ) -> Vec<TxnId> {
        let mut stalled: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| now.saturating_sub(t.started) >= timeout)
            .map(|(id, _)| *id)
            .collect();
        stalled.sort_unstable();
        for txn in &stalled {
            self.finish(*txn, Err(reason), true, out);
        }
        if !stalled.is_empty() && self.recheck_redeliveries(out) {
            self.progress(out);
        }
        stalled
    }

    /// Apply a control-plane membership update: the failed group's primary
    /// is gone and a backup was promoted (`MembershipCore` is the
    /// authority; `epoch` is its stamp). The shard aborts every in-flight
    /// transaction that was dispatched to the failed partition (§3.3:
    /// in-progress multi-partition transactions touching it are aborted so
    /// the surviving participants can roll back and continue; the aborts
    /// are [`AbortReason::PartitionFailed`], which clients transparently
    /// retry against the promoted backup). Returns the aborted
    /// transactions, in id order.
    ///
    /// Transactions already *decided* are handled through the in-doubt
    /// machinery instead: any committed transaction whose commit decision
    /// the failed partition never acked has its fragments re-delivered to
    /// the promoted primary (the emitted `CoordOut::Fragment`s route
    /// through the flipped membership table), closing the classic 2PC
    /// in-doubt window.
    pub fn on_partition_failed(
        &mut self,
        failed: PartitionId,
        epoch: u32,
        out: &mut Vec<CoordOut<F, R>>,
    ) -> Vec<TxnId> {
        self.cpu += self.per_msg;
        self.epochs.insert(failed, epoch);
        let mut doomed: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.dispatched.contains(&failed))
            .map(|(id, _)| *id)
            .collect();
        doomed.sort_unstable();
        for txn in &doomed {
            self.finish(*txn, Err(AbortReason::PartitionFailed), true, out);
        }
        // Close the in-doubt window: re-deliver unacknowledged commits.
        if self.track_in_doubt {
            let mut in_doubt: Vec<TxnId> = self
                .in_doubt
                .iter()
                .filter(|(_, d)| d.unacked.contains(&failed))
                .map(|(t, _)| *t)
                .collect();
            in_doubt.sort_unstable();
            for txn in in_doubt {
                let entry = self.in_doubt.get(&txn).expect("filtered above");
                // Round-driven re-drive: ship only the transaction's
                // first round here; later rounds follow its responses.
                let first = entry
                    .tasks
                    .iter()
                    .filter(|(p, _)| *p == failed)
                    .map(|(_, t)| t)
                    .min_by_key(|t| t.round)
                    .cloned();
                let Some(task) = first else {
                    continue;
                };
                let first_round = task.round;
                out.push(CoordOut::Fragment(failed, task));
                self.charge_msgs(1);
                self.counters.in_doubt_redeliveries += 1;
                self.redeliveries.insert(
                    txn,
                    Redelivery {
                        partition: failed,
                        parked: None,
                        sent: (first_round, 0),
                    },
                );
            }
        }
        if self.recheck_redeliveries(out) {
            self.progress(out);
        }
        doomed
    }

    /// The shard's applied membership epoch for a replica group (0 = never
    /// failed over).
    pub fn epoch(&self, p: PartitionId) -> u32 {
        self.epochs.get(&p).copied().unwrap_or(0)
    }

    /// Committed transactions still awaiting commit-decision acks (tests,
    /// diagnostics).
    pub fn in_doubt_len(&self) -> usize {
        self.in_doubt.len()
    }

    fn gc(&mut self) {
        while self.history_order.len() > HISTORY_LIMIT {
            if let Some(old) = self.history_order.pop_front() {
                self.decided.remove(&old);
                self.in_doubt.remove(&old);
                self.redeliveries.remove(&old);
            }
        }
    }
}

enum Settle {
    Settled,
    Hold,
    Stale,
}

/// What [`Coordinator::progress_one`] did for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Nothing to do (waiting, held, or stale).
    None,
    /// Dispatched the next round — settles nothing for other transactions.
    Dispatched,
    /// Committed or aborted — may settle other transactions' responses.
    Decided,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{one_round, SwapProcedure, TestFragment, TestOutput};

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(n), 0)
    }

    fn coord() -> Coordinator<TestFragment, TestOutput> {
        Coordinator::central(CostModel::default())
    }

    fn simple_proc() -> Box<dyn Procedure<TestFragment, TestOutput>> {
        one_round(vec![
            (PartitionId(0), TestFragment::add(1, 1)),
            (PartitionId(1), TestFragment::add(2, 1)),
        ])
    }

    fn ok_response(
        txn: TxnId,
        p: u32,
        round: u32,
        vote: Option<Vote>,
        dep: Option<hcc_common::SpecDep>,
    ) -> FragmentResponse<TestOutput> {
        FragmentResponse {
            txn,
            partition: PartitionId(p),
            round,
            attempt: 0,
            payload: Ok(vec![(1, 1)]),
            vote,
            depends_on: dep,
        }
    }

    #[test]
    fn simple_mp_commits_after_both_votes() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        // Two fragments dispatched, prepare piggybacked.
        let frags: Vec<_> = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Fragment(_, t) if t.last_fragment))
            .collect();
        assert_eq!(frags.len(), 2);
        out.clear();

        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.is_empty(), "no decision on partial votes");
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        let decisions = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, d, _) if d.commit))
            .count();
        assert_eq!(decisions, 2);
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::ClientResult {
                result: TxnResult::Committed(_),
                ..
            }
        )));
        assert_eq!(c.counters.commits, 1);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn abort_vote_aborts_everywhere() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        out.clear();
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        let mut bad = ok_response(txid(1), 1, 0, None, None);
        bad.payload = Err(AbortReason::User);
        bad.vote = Some(Vote::Abort(AbortReason::User));
        c.on_response(bad, &mut out);
        let aborts = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, d, _) if !d.commit))
            .count();
        assert_eq!(aborts, 2, "both participants told to abort");
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::ClientResult {
                result: TxnResult::Aborted(AbortReason::User),
                ..
            }
        )));
        assert_eq!(c.counters.aborts, 1);
    }

    #[test]
    fn two_round_swap_drives_rounds() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(
            txid(1),
            ClientId(1),
            Box::new(SwapProcedure {
                p1: PartitionId(0),
                key1: 1,
                p2: PartitionId(1),
                key2: 2,
            }),
            false,
            &mut out,
        );
        // Round 0: reads, no prepare.
        assert!(out.iter().all(|o| match o {
            CoordOut::Fragment(_, t) => !t.last_fragment && t.round == 0,
            _ => false,
        }));
        out.clear();

        let mut r0p0 = ok_response(txid(1), 0, 0, None, None);
        r0p0.payload = Ok(vec![(1, 5)]);
        let mut r0p1 = ok_response(txid(1), 1, 0, None, None);
        r0p1.payload = Ok(vec![(2, 17)]);
        c.on_response(r0p0, &mut out);
        c.on_response(r0p1, &mut out);
        // Round 1 dispatched with prepare.
        let round1: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                CoordOut::Fragment(p, t) => Some((*p, t.round, t.last_fragment)),
                _ => None,
            })
            .collect();
        assert_eq!(round1.len(), 2);
        assert!(round1.iter().all(|(_, r, last)| *r == 1 && *last));
        out.clear();

        c.on_response(
            ok_response(txid(1), 0, 1, Some(Vote::Commit), None),
            &mut out,
        );
        c.on_response(
            ok_response(txid(1), 1, 1, Some(Vote::Commit), None),
            &mut out,
        );
        assert_eq!(c.counters.commits, 1);
        assert!(out
            .iter()
            .any(|o| matches!(o, CoordOut::Decision(_, d, _) if d.commit)));
    }

    #[test]
    fn speculative_response_waits_for_dependency() {
        let mut c = coord();
        let mut out = Vec::new();
        // A then C, chained at partition 0.
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        c.on_invoke(txid(2), ClientId(2), simple_proc(), false, &mut out);
        out.clear();

        // C's responses arrive first (speculative at P0 on A).
        let dep = hcc_common::SpecDep {
            txn: txid(1),
            attempt: 0,
        };
        c.on_response(
            ok_response(txid(2), 0, 0, Some(Vote::Commit), Some(dep)),
            &mut out,
        );
        c.on_response(
            ok_response(txid(2), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.is_empty(), "C held: A undecided");

        // A commits.
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        // Both A and C decided now (C settles once A commits).
        assert_eq!(c.counters.commits, 2);
        let c_decisions = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, d, _) if d.txn == txid(2) && d.commit))
            .count();
        assert_eq!(c_decisions, 2);
    }

    #[test]
    fn stale_dependent_response_is_discarded_on_abort() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        c.on_invoke(txid(2), ClientId(2), simple_proc(), false, &mut out);
        out.clear();

        // C speculated on A at both partitions.
        let dep = hcc_common::SpecDep {
            txn: txid(1),
            attempt: 0,
        };
        c.on_response(
            ok_response(txid(2), 0, 0, Some(Vote::Commit), Some(dep)),
            &mut out,
        );
        c.on_response(
            ok_response(txid(2), 1, 0, Some(Vote::Commit), Some(dep)),
            &mut out,
        );

        // A aborts (user abort at P0).
        let mut bad = ok_response(txid(1), 0, 0, None, None);
        bad.payload = Err(AbortReason::User);
        bad.vote = Some(Vote::Abort(AbortReason::User));
        c.on_response(bad, &mut out);
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert_eq!(c.counters.aborts, 1);
        // C must NOT be decided on its stale responses.
        assert_eq!(c.counters.commits, 0);
        assert_eq!(c.pending(), 1);
        out.clear();

        // Fresh (re-executed) responses arrive with attempt 1, no deps.
        let mut f0 = ok_response(txid(2), 0, 0, Some(Vote::Commit), None);
        f0.attempt = 1;
        let mut f1 = ok_response(txid(2), 1, 0, Some(Vote::Commit), None);
        f1.attempt = 1;
        c.on_response(f0, &mut out);
        c.on_response(f1, &mut out);
        assert_eq!(c.counters.commits, 1);
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::ClientResult { txn, result: TxnResult::Committed(_), .. } if *txn == txid(2)
        )));
    }

    #[test]
    fn dependency_on_wrong_attempt_is_stale() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        c.on_invoke(txid(2), ClientId(2), simple_proc(), false, &mut out);
        out.clear();

        // A commits at attempt 1 (it was squashed once by an earlier abort
        // we don't model here).
        let mut a0 = ok_response(txid(1), 0, 0, Some(Vote::Commit), None);
        a0.attempt = 1;
        let mut a1 = ok_response(txid(1), 1, 0, Some(Vote::Commit), None);
        a1.attempt = 1;
        c.on_response(a0, &mut out);
        c.on_response(a1, &mut out);
        assert_eq!(c.counters.commits, 1);
        out.clear();

        // C's stale response depends on A attempt 0 — the squashed one.
        let dep = hcc_common::SpecDep {
            txn: txid(1),
            attempt: 0,
        };
        c.on_response(
            ok_response(txid(2), 0, 0, Some(Vote::Commit), Some(dep)),
            &mut out,
        );
        c.on_response(
            ok_response(txid(2), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert_eq!(c.counters.commits, 1, "stale C not committed");
        assert!(c.counters.stale_responses_discarded > 0);

        // Fresh C depending on the committed attempt goes through.
        let dep1 = hcc_common::SpecDep {
            txn: txid(1),
            attempt: 1,
        };
        let mut f0 = ok_response(txid(2), 0, 0, Some(Vote::Commit), Some(dep1));
        f0.attempt = 1;
        c.on_response(f0, &mut out);
        assert_eq!(c.counters.commits, 2);
    }

    #[test]
    fn charges_cpu_per_message() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        let cpu = c.take_cpu();
        // 1 receive + 2 fragment sends.
        assert_eq!(cpu, Nanos(CostModel::default().coord_per_msg.0 * 3));
        assert_eq!(c.take_cpu(), Nanos::ZERO);
    }

    #[test]
    fn duplicate_and_late_responses_are_harmless() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        out.clear();
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        // Duplicate of the same response: overwrites, no decision yet.
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.is_empty());
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert_eq!(c.counters.commits, 1);
        out.clear();
        // A response arriving after the decision (e.g. a held speculative
        // result released late) is ignored.
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(c.counters.commits, 1);
    }

    #[test]
    fn expire_stalled_aborts_only_old_transactions() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke_at(
            txid(1),
            ClientId(1),
            simple_proc(),
            false,
            Nanos(0),
            &mut out,
        );
        c.on_invoke_at(
            txid(2),
            ClientId(2),
            simple_proc(),
            false,
            Nanos(5_000_000),
            &mut out,
        );
        out.clear();
        let aborted = c.expire_stalled(
            Nanos(6_000_000),
            Nanos(2_000_000),
            AbortReason::RemoteAbort,
            &mut out,
        );
        assert_eq!(aborted, vec![txid(1)], "only the stalled txn expires");
        assert_eq!(c.pending(), 1);
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::ClientResult {
                result: TxnResult::Aborted(AbortReason::RemoteAbort),
                ..
            }
        )));
        // Presumed-abort semantics: no participant has *responded* yet
        // (their fragments may still be queued unexecuted), so no eager
        // decisions — a late vote is answered with presumed abort.
        let aborts = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, d, _) if !d.commit && d.txn == txid(1)))
            .count();
        assert_eq!(aborts, 0, "no decisions to never-executed participants");
        out.clear();
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(
                o,
                CoordOut::Decision(p, d, _) if !d.commit && d.txn == txid(1) && *p == PartitionId(0)
            )),
            "late vote answered with presumed abort"
        );
    }

    #[test]
    fn partition_failure_aborts_involved_txns_and_bumps_epoch() {
        let mut c = coord();
        let mut out = Vec::new();
        // txn 1 touches P0+P1, txn 2 touches P2+P3 only.
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        c.on_invoke(
            txid(2),
            ClientId(2),
            one_round(vec![
                (PartitionId(2), TestFragment::add(1, 1)),
                (PartitionId(3), TestFragment::add(2, 1)),
            ]),
            false,
            &mut out,
        );
        out.clear();
        assert_eq!(c.epoch(PartitionId(1)), 0);
        let aborted = c.on_partition_failed(PartitionId(1), 1, &mut out);
        assert_eq!(c.epoch(PartitionId(1)), 1);
        assert_eq!(aborted, vec![txid(1)], "only the involved txn dies");
        assert_eq!(c.pending(), 1, "txn 2 survives");
        assert_eq!(c.counters.failover_aborts, 1);
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::ClientResult {
                result: TxnResult::Aborted(AbortReason::PartitionFailed),
                ..
            }
        )));
        // Neither participant has *executed* txn 1 (no responses yet), so
        // no decision fans out — a decision for a never-executed
        // transaction would be unintelligible to a partition scheduler.
        let aborts = out
            .iter()
            .filter(|o| matches!(o, CoordOut::Decision(_, d, _) if !d.commit))
            .count();
        assert_eq!(aborts, 0);
        out.clear();
        // When the late vote eventually arrives (the fragment was queued
        // behind other work), it is answered with presumed-abort.
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(
                o,
                CoordOut::Decision(p, d, _) if !d.commit && d.txn == txid(1) && *p == PartitionId(0)
            )),
            "late response from a failover-aborted txn gets presumed-abort"
        );
    }

    #[test]
    fn partition_failure_sends_decisions_to_executed_participants() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        out.clear();
        // P0 executed and voted; P1 never responded.
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        let aborted = c.on_partition_failed(PartitionId(1), 1, &mut out);
        assert_eq!(aborted, vec![txid(1)]);
        let decisions: Vec<u32> = out
            .iter()
            .filter_map(|o| match o {
                CoordOut::Decision(p, d, _) if !d.commit => Some(p.0),
                _ => None,
            })
            .collect();
        assert_eq!(decisions, vec![0], "only the executed participant");
    }

    /// The readers of an aborted fate: a dependent of an expired
    /// transaction is stale, a presumed abort reaches each late
    /// participant once, and a peer's abort note makes a held dependent
    /// stale.
    #[test]
    fn aborted_fate_stales_dependents_and_answers_each_late_vote_once() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke_at(
            txid(1),
            ClientId(1),
            simple_proc(),
            false,
            Nanos(0),
            &mut out,
        );
        let later = Nanos(5_000_000);
        c.on_invoke_at(txid(2), ClientId(2), simple_proc(), false, later, &mut out);
        let (now, timeout) = (Nanos(6_000_000), Nanos(2_000_000));
        let expired = c.expire_stalled(now, timeout, AbortReason::CrossCoordinator, &mut out);
        assert_eq!(expired, vec![txid(1)]);
        out.clear();

        // (a) Txn 2 speculated on the expired txn 1 at P0: stale.
        let dep = hcc_common::SpecDep {
            txn: txid(1),
            attempt: 0,
        };
        let vote = Some(Vote::Commit);
        c.on_response(ok_response(txid(2), 0, 0, vote, Some(dep)), &mut out);
        c.on_response(ok_response(txid(2), 1, 0, vote, None), &mut out);
        assert_eq!(c.counters.stale_responses_discarded, 1, "discarded");
        assert!(out.is_empty(), "and nothing decided on it");

        // (b) Txn 1's late vote at P0 draws the presumed abort; a second
        // vote from P0 (a squashed re-execution) draws nothing.
        c.on_response(ok_response(txid(1), 0, 0, vote, None), &mut out);
        let abort_at_p0 = |o: &Out| {
            matches!(o, CoordOut::Decision(p, d, _)
                if !d.commit && d.txn == txid(1) && *p == PartitionId(0))
        };
        assert_eq!(out.iter().filter(|o| abort_at_p0(o)).count(), 1);
        out.clear();
        c.on_response(ok_response(txid(1), 0, 0, vote, None), &mut out);
        assert!(out.is_empty(), "no second decision");
        assert_eq!(c.counters.stale_responses_discarded, 2);

        // (c) Txn 3 speculated on a peer shard's transaction at P0 and
        // holds; the peer's abort note makes that response stale.
        c.on_invoke(txid(3), ClientId(3), simple_proc(), false, &mut out);
        out.clear();
        let peer = peer_commit(Vec::new()).txn;
        let dep = hcc_common::SpecDep {
            txn: peer,
            attempt: 0,
        };
        c.on_response(ok_response(txid(3), 0, 0, vote, Some(dep)), &mut out);
        c.on_response(ok_response(txid(3), 1, 0, vote, None), &mut out);
        assert!(out.is_empty(), "held on the undecided peer");
        let note = PeerNote {
            txn: peer,
            commit: false,
            attempts: Vec::new(),
        };
        c.on_peer_decision(note, &mut out);
        assert!(out.is_empty(), "not decided on the stale response");
        assert_eq!(c.counters.stale_responses_discarded, 3);
        // The re-executed response settles and txn 3 commits.
        let mut fresh = ok_response(txid(3), 0, 0, vote, None);
        fresh.attempt = 1;
        c.on_response(fresh, &mut out);
        assert_eq!(c.counters.commits, 1);
    }

    #[test]
    fn decisions_are_emitted_in_stable_partition_order() {
        // Determinism: the decision fan-out must not depend on HashSet
        // iteration order.
        for _ in 0..5 {
            let mut c = coord();
            let mut out = Vec::new();
            c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
            out.clear();
            c.on_response(
                ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
                &mut out,
            );
            c.on_response(
                ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
                &mut out,
            );
            let order: Vec<u32> = out
                .iter()
                .filter_map(|o| match o {
                    CoordOut::Decision(p, ..) => Some(p.0),
                    _ => None,
                })
                .collect();
            assert_eq!(order, vec![0, 1]);
        }
    }

    fn tracking_shard() -> Coordinator<TestFragment, TestOutput> {
        Coordinator::shard(CostModel::default(), CoordinatorId(0), true)
    }

    /// Drive one simple MP transaction to commit on a tracking shard.
    fn commit_one(c: &mut Coordinator<TestFragment, TestOutput>, n: u32) {
        let mut out = Vec::new();
        c.on_invoke(txid(n), ClientId(n), simple_proc(), false, &mut out);
        c.on_response(
            ok_response(txid(n), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        c.on_response(
            ok_response(txid(n), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::Decision(_, d, Some(_)) if d.commit && d.txn == txid(n)
        )));
    }

    #[test]
    fn commit_acks_resolve_the_in_doubt_window() {
        let mut c = tracking_shard();
        commit_one(&mut c, 1);
        assert_eq!(c.in_doubt_len(), 1, "committed but unacked");
        c.on_decision_ack(txid(1), PartitionId(0), true, &mut Vec::new());
        assert_eq!(c.in_doubt_len(), 1, "one participant still unacked");
        c.on_decision_ack(txid(1), PartitionId(1), true, &mut Vec::new());
        assert_eq!(c.in_doubt_len(), 0);
        assert_eq!(c.counters.decision_acks, 2);
    }

    #[test]
    fn unacked_commit_is_redelivered_after_failover_and_recommitted() {
        let mut c = tracking_shard();
        commit_one(&mut c, 1);
        c.on_decision_ack(txid(1), PartitionId(0), true, &mut Vec::new());
        // P1's primary dies holding the unacked commit decision.
        let mut out = Vec::new();
        let aborted = c.on_partition_failed(PartitionId(1), 1, &mut out);
        assert!(aborted.is_empty(), "nothing in flight to abort");
        let redelivered: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                CoordOut::Fragment(p, t) => Some((*p, t.txn)),
                _ => None,
            })
            .collect();
        assert_eq!(
            redelivered,
            vec![(PartitionId(1), txid(1))],
            "the in-doubt fragment goes back to the (promoted) partition"
        );
        assert_eq!(c.counters.in_doubt_redeliveries, 1);
        out.clear();

        // The promoted primary re-executes and votes; the shard answers
        // with the already-global commit.
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(
                o,
                CoordOut::Decision(p, d, Some(_)) if d.commit && d.txn == txid(1) && *p == PartitionId(1)
            )),
            "re-vote answered with commit"
        );
        assert_eq!(c.counters.in_doubt_commits_recovered, 1);
        // The fresh ack finally closes the window.
        c.on_decision_ack(txid(1), PartitionId(1), true, &mut Vec::new());
        assert_eq!(c.in_doubt_len(), 0);
    }

    type Shard = Coordinator<TestFragment, TestOutput>;
    type Out = CoordOut<TestFragment, TestOutput>;

    /// A peer shard's note: its transaction (client 7's first) committed
    /// with these per-partition attempts.
    fn peer_commit(attempts: Vec<(PartitionId, u32)>) -> PeerNote {
        let (txn, commit) = (TxnId::new(ClientId(7), 0), true);
        PeerNote {
            txn,
            commit,
            attempts,
        }
    }

    /// Cross-shard (sequencing) failover, as this shard sees it: the peer's
    /// transaction committed at P1's dead primary as `dead_attempt`, its
    /// owner re-delivers it, and this shard's transaction chains on the
    /// re-execution at the promoted primary (membership epoch 1), which
    /// votes into `out`.
    fn vote_behind_a_peers_re_execution(dead_attempt: u32, out: &mut Vec<Out>) -> Shard {
        let mut c = tracking_shard();
        c.on_peer_decision(
            peer_commit(vec![(PartitionId(0), 0), (PartitionId(1), dead_attempt)]),
            out,
        );
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, out);
        c.on_response(ok_response(txid(1), 0, 0, Some(Vote::Commit), None), out);
        out.clear();
        // Attempt 0 at the promoted primary, behind attempt 0 of the peer's.
        let mut vote = ok_response(txid(1), 1, 0, Some(Vote::Commit), None);
        vote.attempt = stamp_attempt(0, 1);
        let (txn, attempt) = (peer_commit(Vec::new()).txn, stamp_attempt(0, 1));
        vote.depends_on = Some(hcc_common::SpecDep { txn, attempt });
        c.on_response(vote, out);
        c
    }

    /// Cited at the new epoch, the dependency must hold until the owner's
    /// note names the re-execution's attempt, then settle; judged against
    /// the dead primary's attempt it would be discarded as stale and never
    /// re-sent.
    #[test]
    fn dependency_on_a_peers_redelivered_commit_holds_then_settles() {
        let mut out = Vec::new();
        let mut c = vote_behind_a_peers_re_execution(1, &mut out);
        assert!(out.is_empty(), "held, not decided");
        assert_eq!(c.counters.stale_responses_discarded, 0, "and not discarded");
        let attempts = vec![(PartitionId(0), 0), (PartitionId(1), stamp_attempt(0, 1))];
        c.on_peer_decision(peer_commit(attempts), &mut out);
        assert!(out.iter().any(|o| matches!(
            o,
            CoordOut::Decision(_, d, _) if d.commit && d.txn == txid(1)
        )));
    }

    /// The dead primary's execution was attempt 0 too — attempts restart at
    /// 0 on a promoted primary, so only the epoch tells the two apart.
    /// Settled against the old record, the dependent's commit would reach
    /// P1 while the re-execution still heads P1's chain.
    #[test]
    fn dependent_of_a_re_execution_does_not_settle_against_the_dead_primarys_attempt() {
        let mut out = Vec::new();
        let c = vote_behind_a_peers_re_execution(0, &mut out);
        assert!(
            !out.iter().any(|o| matches!(o, CoordOut::Decision(..))),
            "no decision before the re-execution is voted"
        );
        assert_eq!(c.counters.stale_responses_discarded, 0);
    }

    #[test]
    fn redelivered_vote_with_pending_dependency_parks_until_it_decides() {
        let mut c = tracking_shard();
        commit_one(&mut c, 1);
        let mut out = Vec::new();
        c.on_partition_failed(PartitionId(1), 1, &mut out);
        out.clear();
        // A fresh transaction reaches the promoted primary and executes
        // ahead of the redelivered fragment in its speculation chain.
        c.on_invoke(txid(2), ClientId(2), simple_proc(), false, &mut out);
        out.clear();
        // The re-vote speculates on the (undecided) txn 2: must hold.
        let dep = hcc_common::SpecDep {
            txn: txid(2),
            attempt: 0,
        };
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), Some(dep)),
            &mut out,
        );
        assert!(
            !out.iter()
                .any(|o| matches!(o, CoordOut::Decision(_, d, _) if d.txn == txid(1))),
            "held vote must not be answered yet"
        );
        out.clear();
        // txn 2 commits -> the parked vote settles -> commit re-delivered.
        c.on_response(
            ok_response(txid(2), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        c.on_response(
            ok_response(txid(2), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(
                o,
                CoordOut::Decision(p, d, _) if d.commit && d.txn == txid(1) && *p == PartitionId(1)
            )),
            "parked re-vote answered once its dependency committed"
        );
        assert_eq!(c.counters.in_doubt_commits_recovered, 1);
    }

    #[test]
    fn untracked_coordinator_emits_no_acks_and_retains_nothing() {
        let mut c = coord();
        let mut out = Vec::new();
        c.on_invoke(txid(1), ClientId(1), simple_proc(), false, &mut out);
        c.on_response(
            ok_response(txid(1), 0, 0, Some(Vote::Commit), None),
            &mut out,
        );
        c.on_response(
            ok_response(txid(1), 1, 0, Some(Vote::Commit), None),
            &mut out,
        );
        assert!(out.iter().all(|o| match o {
            CoordOut::Decision(_, _, ack) => ack.is_none(),
            _ => true,
        }));
        assert_eq!(c.in_doubt_len(), 0);
    }

    #[test]
    fn history_gc_bounded() {
        let mut c = coord();
        let mut out = Vec::new();
        for i in 0..(HISTORY_LIMIT as u32 + 10) {
            let txn = TxnId::new(ClientId(7), i);
            c.on_invoke(txn, ClientId(7), simple_proc(), false, &mut out);
            c.on_response(ok_response(txn, 0, 0, Some(Vote::Commit), None), &mut out);
            c.on_response(ok_response(txn, 1, 0, Some(Vote::Commit), None), &mut out);
            out.clear();
        }
        assert!(c.decided.len() <= HISTORY_LIMIT);
        assert_eq!(c.pending(), 0);
    }

    /// A client driver records only presumed aborts (see the next test):
    /// the lock-timeout aborts and the commits leave both the record and
    /// its trim order empty.
    #[test]
    fn a_client_driver_records_no_decided_transaction() {
        let mut c = Coordinator::client_driver(CostModel::default(), ClientId(7));
        let mut out = Vec::new();
        for i in 0..6 {
            let txn = TxnId::new(ClientId(7), i);
            c.on_invoke(txn, ClientId(7), simple_proc(), false, &mut out);
            c.on_response(ok_response(txn, 0, 0, Some(Vote::Commit), None), &mut out);
            let mut second = ok_response(txn, 1, 0, Some(Vote::Commit), None);
            if i % 3 == 2 {
                second.payload = Err(AbortReason::LockTimeout);
                second.vote = Some(Vote::Abort(AbortReason::LockTimeout));
            }
            c.on_response(second, &mut out);
        }
        let results = out
            .iter()
            .filter(|o| matches!(o, CoordOut::ClientResult { .. }))
            .count();
        assert_eq!(results, 6);
        assert_eq!((c.counters.commits, c.counters.aborts), (4, 2));
        assert!(c.decided.is_empty());
        assert!(c.history_order.is_empty());
        assert_eq!(c.pending(), 0);
    }

    /// Round 0 at P0 and P1; the final round 1 reaches P2 as well.
    #[derive(Debug, Clone)]
    struct ReachesP2;

    impl Procedure<TestFragment, TestOutput> for ReachesP2 {
        fn clone_box(&self) -> Box<dyn Procedure<TestFragment, TestOutput>> {
            Box::new(self.clone())
        }

        fn step(&self, prior: &[RoundOutputs<TestOutput>]) -> Step<TestFragment, TestOutput> {
            let reached = match prior.len() {
                0 => 2,
                1 => 3,
                _ => return Step::Finish(Vec::new()),
            };
            Step::Round {
                fragments: (0..reached)
                    .map(|p| (PartitionId(p), TestFragment::add(1, 1)))
                    .collect(),
                is_final: reached == 3,
            }
        }
    }

    #[test]
    fn a_client_driver_answers_a_late_vote_after_a_bounce_with_one_abort() {
        let mut c = Coordinator::client_driver(CostModel::default(), ClientId(7));
        let txn = TxnId::new(ClientId(7), 0);
        let mut out = Vec::new();
        c.on_invoke(txn, ClientId(7), Box::new(ReachesP2), false, &mut out);
        c.on_response(ok_response(txn, 0, 0, None, None), &mut out);
        c.on_response(ok_response(txn, 1, 0, None, None), &mut out);
        // P1 dies in round 1; its bounce carries the round it recorded
        // first. P2 has not executed round 1, so it is not told yet.
        let mut bounce = ok_response(txn, 1, 0, None, None);
        bounce.payload = Err(AbortReason::PartitionFailed);
        out.clear();
        c.on_response(bounce, &mut out);
        let told = |out: &[CoordOut<TestFragment, TestOutput>]| -> Vec<u32> {
            out.iter()
                .filter_map(|o| match o {
                    CoordOut::Decision(p, d, _) if !d.commit && d.txn == txn => Some(p.0),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(told(&out), vec![0, 1]);
        assert_eq!(c.pending(), 0);
        // P2's vote arrives after the decision: it holds its locks until
        // it hears the abort, which it hears once.
        out.clear();
        c.on_response(ok_response(txn, 2, 1, Some(Vote::Commit), None), &mut out);
        assert_eq!(told(&out), vec![2]);
        out.clear();
        c.on_response(ok_response(txn, 2, 1, Some(Vote::Commit), None), &mut out);
        assert_eq!(told(&out), Vec::<u32>::new());
    }
}
