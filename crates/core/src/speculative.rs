//! The speculative concurrency control scheme (paper §4.2, Figure 3), and
//! through two parameters the other two queue-based schemes:
//!
//! * **Blocking** (§4.1, Figure 2) is this scheduler at `max_depth = 0`.
//!   Figure 3 is Figure 2's loop plus execution during the 2PC stall, and
//!   §5.3's mitigation caps how much is speculated; at a cap of 0 nothing
//!   is, so a multi-partition transaction holds the partition until its
//!   decision and everything behind it queues ("this system assumes that
//!   all transactions conflict, and thus can only execute one at a time").
//! * **OCC** (§5.7) is this scheduler with [`ConflictPolicy::Precise`]: the
//!   same speculation, validated against read/write sets instead of
//!   assuming every pair conflicts.
//!
//! [`crate::scheduler::AnySched::build`] picks the depth and policy per
//! scheme; all three honour `local_speculation_only` and sequencing.
//!
//! While a multi-partition transaction waits for its two-phase commit to
//! resolve (a pure network stall), the partition executes queued
//! transactions *speculatively*: with undo buffers, results withheld,
//! assuming they conflict with everything that ran before them. If the
//! pending transaction commits, the speculative work is committed for free
//! — the stall was hidden. If it aborts, every speculative transaction is
//! undone (tail first), re-queued in order, and re-executed.
//!
//! Nothing is speculated past a multi-partition transaction whose fragment
//! voted abort *here*. Assuming all transactions conflict, such work is
//! squashed whatever the decision: if the doomed transaction's own
//! dependency commits, its abort stands and squashes what follows it; if
//! the dependency aborts, everything behind it goes too. So it would only
//! be run twice. Queued work waits in the unexecuted queue until the
//! decision and then runs as it would have after the squash; no message,
//! vote or decision changes. `SchedulerCounters::doomed_waits` counts the
//! distinct transactions that held speculation back this way. The rule
//! applies at any depth cap above 0 (at 0 nothing speculates anyway) and
//! not under [`ConflictPolicy::Precise`], whose disjoint single-partition
//! successors survive the abort. The squashes left follow aborts decided
//! at another participant, which this partition cannot foresee.
//!
//! Two levels, as in the paper:
//!
//! * **Local speculation** (§4.2.1): speculative single-partition results
//!   are buffered inside the partition and released when they become
//!   non-speculative.
//! * **Multi-partition speculation** (§4.2.2): when every transaction in
//!   the uncommitted queue shares one coordinator, speculative fragment
//!   responses are released to that coordinator immediately, tagged with
//!   the execution attempt of the transaction they depend on. The
//!   coordinator cascades commits and aborts (see `coordinator.rs`).
//!
//! Under **sharded coordinators** the same-coordinator-chain rule is
//! enforced by falling back to *blocking*: a multi-partition fragment
//! whose coordinator differs from the uncommitted chain's waits in the
//! unexecuted queue instead of speculating — releasing its result with a
//! cross-shard dependency would be unverifiable at the other shard.
//! `SchedulerCounters::cross_coord_waits` counts the distinct
//! transactions held at the head of that queue for this reason, once per
//! stall, at any depth cap: blocking, speculation and OCC count the same
//! thing (zero under sequencing, which lifts the rule). Because no
//! global dispatch order exists across shards, two cross-shard
//! transactions meeting at two partitions in opposite orders can wait on
//! each other forever; that residual distributed deadlock is resolved by
//! the coordinator's timeout expiry (on `Coordinator::on_tick`, with the
//! retryable [`hcc_common::AbortReason::CrossCoordinator`]), exactly how §4.3
//! resolves distributed deadlocks under locking.
//!
//! Speculation is only legal once the transaction ahead has "finished
//! locally" (executed its last fragment here — the piggybacked prepare);
//! continuation fragments of a *speculative* multi-round transaction are
//! parked until it is promoted to the head of the queue, which is why
//! general transactions gain little from speculation (§5.4, Figure 7).

use crate::engine::ExecutionEngine;
use crate::outbox::Outbox;
use crate::scheduler::Scheduler;
use hcc_common::stats::SchedulerCounters;
use hcc_common::{
    CoordinatorRef, CostModel, Decision, FragmentResponse, FragmentTask, FxHashMap, FxHashSet,
    Nanos, PartitionId, SpecDep, SystemConfig, TxnId, TxnResult, Vote,
};
use hcc_locking::LockMode;
use std::collections::VecDeque;

/// How cascading aborts decide which speculative transactions to squash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// The paper's speculation: "it assumes that all transactions
    /// conflict" — every speculative successor is squashed (§4.2). For
    /// the same reason nothing is speculated past a transaction that
    /// voted abort here: whatever its decision, that work would be
    /// squashed, so holding it back skips only waste.
    AssumeAll,
    /// The OCC extension (§5.7): track read/write sets and squash only
    /// transactions whose sets actually intersect the aborted writes
    /// (transitively). Multi-partition transactions are always squashed to
    /// keep the coordinator dependency protocol simple; single-partition
    /// transactions survive if they touched disjoint data. Set tracking is
    /// charged like lock overhead ("our locking implementation involves
    /// little more than keeping track of the read/write sets of a
    /// transaction — which OCC also must do").
    Precise,
}

/// An executed-but-uncommitted transaction.
struct Uncommitted<E: ExecutionEngine> {
    txn: TxnId,
    coordinator: CoordinatorRef,
    client: hcc_common::ClientId,
    multi_partition: bool,
    /// Execution attempt at this partition (incremented on each squash).
    attempt: u32,
    /// True once the last fragment at this partition has executed.
    finished_locally: bool,
    /// A fragment of this transaction failed here, so it voted abort and
    /// will abort: under `AssumeAll` nothing is speculated past it.
    voted_abort: bool,
    /// Result of a single-partition transaction, buffered until it becomes
    /// non-speculative (local speculation, §4.2.1).
    buffered_result: Option<TxnResult<E::Output>>,
    /// Responses of a *different-coordinator* multi-partition transaction,
    /// held until promotion to head.
    held_responses: Vec<FragmentResponse<E::Output>>,
    /// The round-0 fragment, kept for re-execution after a squash (later
    /// rounds are never re-run from here: the coordinator re-drives them).
    first_task: FragmentTask<E::Fragment>,
    /// Continuation fragments that arrived while speculative; run at
    /// promotion.
    pending_continuations: VecDeque<FragmentTask<E::Fragment>>,
    /// Read/write set (only tracked under `ConflictPolicy::Precise`).
    lock_set: Vec<(hcc_common::LockKey, LockMode)>,
}

/// Scheduler implementing Figure 3 of the paper.
pub struct SpeculativeScheduler<E: ExecutionEngine> {
    me: PartitionId,
    costs: CostModel,
    /// Fragments not yet executed (new transactions), FIFO.
    unexecuted: VecDeque<FragmentTask<E::Fragment>>,
    /// Executed transactions awaiting commit; head is non-speculative.
    uncommitted: VecDeque<Uncommitted<E>>,
    /// Count of entries in `uncommitted` not yet finished locally.
    unfinished: usize,
    /// Cap on outstanding speculative transactions (∞ reproduces the
    /// paper; finite values implement the §5.3 mitigation; 0 is blocking).
    max_depth: usize,
    /// Next execution attempt for squashed transactions awaiting re-run.
    attempts: FxHashMap<TxnId, u32>,
    policy: ConflictPolicy,
    /// §4.2.1-only mode: hold speculative multi-partition responses in the
    /// partition instead of releasing them with dependency tags.
    local_only: bool,
    /// The cross-shard transaction the pump is currently stalled on
    /// (dedupes the `cross_coord_waits` count).
    blocked_on: Option<TxnId>,
    /// The doomed transaction speculation last stopped behind (dedupes the
    /// `doomed_waits` count).
    doomed_on: Option<TxnId>,
    /// Cross-shard sequencing active: multi-partition arrivals are already
    /// globally ordered by the epoch merge, so the §4.2.2
    /// same-coordinator-chain rule is lifted — speculation chains legally
    /// span coordinator shards (their cross-shard dependencies settle via
    /// peer decision notes).
    sequenced: bool,
    /// Stale continuation fragments dropped (see `on_fragment`).
    pub stale_fragments_dropped: u64,
    counters: SchedulerCounters,
}

impl<E: ExecutionEngine> SpeculativeScheduler<E> {
    /// The scheduler for partition `me` at speculation cap `max_depth`
    /// under `policy`; costs, `local_speculation_only` and whether
    /// sequencing runs come from `config`.
    pub fn new(
        config: &SystemConfig,
        me: PartitionId,
        max_depth: usize,
        policy: ConflictPolicy,
    ) -> Self {
        SpeculativeScheduler {
            me,
            costs: config.costs,
            unexecuted: VecDeque::new(),
            uncommitted: VecDeque::new(),
            unfinished: 0,
            max_depth,
            attempts: FxHashMap::default(),
            policy,
            local_only: config.local_speculation_only,
            blocked_on: None,
            doomed_on: None,
            sequenced: config.sequencing_active(),
            stale_fragments_dropped: 0,
            counters: SchedulerCounters::default(),
        }
    }

    fn track_sets(&self) -> bool {
        self.policy == ConflictPolicy::Precise
    }

    /// Number of speculative (non-head) uncommitted transactions.
    pub fn speculation_depth(&self) -> usize {
        self.uncommitted.len().saturating_sub(1)
    }

    pub fn unexecuted_len(&self) -> usize {
        self.unexecuted.len()
    }

    fn position(&self, txn: TxnId) -> Option<usize> {
        self.uncommitted.iter().position(|u| u.txn == txn)
    }

    fn charge_exec(&mut self, out: &mut Outbox<E::Output>, ops: u32, mp: bool) {
        // Under the OCC policy, read/write set tracking costs about what
        // lock maintenance does (paper §5.7), so it is billed the same way.
        let cost = self.costs.fragment_cost(ops, true, self.track_sets(), mp);
        out.charge(cost);
        self.counters.fragments_executed += 1;
        self.counters.execution_ns += cost.0;
    }

    fn charge_rollback(&mut self, out: &mut Outbox<E::Output>, undone: u32) {
        let cost = self.costs.rollback_cost(undone);
        out.charge(cost);
        self.counters.rollback_ns += cost.0;
    }

    fn vote_for(result: &Result<E::Output, hcc_common::AbortReason>, last: bool) -> Option<Vote> {
        match (result, last) {
            (Ok(_), true) => Some(Vote::Commit),
            (Err(r), _) => Some(Vote::Abort(*r)),
            (Ok(_), false) => None,
        }
    }

    /// Whether every uncommitted **multi-partition** transaction shares
    /// `coordinator` — the §4.2.2 condition for releasing speculative
    /// results ("multi-partition speculation can only be used when the
    /// multi-partition transactions come from the same coordinator").
    /// Buffered single-partition transactions have no coordinator and are
    /// irrelevant: their results never leave the partition early.
    fn all_same_coordinator(&self, coordinator: CoordinatorRef) -> bool {
        self.uncommitted
            .iter()
            .filter(|u| u.multi_partition)
            .all(|u| u.coordinator == coordinator)
    }

    /// The most recent multi-partition transaction in the uncommitted
    /// queue: the dependency a new speculative result must name.
    fn last_mp_dep(&self) -> Option<SpecDep> {
        self.uncommitted
            .iter()
            .rev()
            .find(|u| u.multi_partition)
            .map(|u| SpecDep {
                txn: u.txn,
                attempt: u.attempt,
            })
    }

    /// Figure 3's dispatch loop: run new work non-speculatively when the
    /// partition is empty, speculatively when everything queued ahead has
    /// finished locally.
    fn pump(&mut self, engine: &mut E, out: &mut Outbox<E::Output>) {
        loop {
            if self.uncommitted.is_empty() {
                let Some(task) = self.unexecuted.pop_front() else {
                    return;
                };
                if task.multi_partition {
                    self.start_mp_head(task, engine, out);
                } else {
                    self.run_sp_fast_path(task, engine, out);
                }
            } else {
                // §4.2.2 same-coordinator-chain rule: a multi-partition
                // transaction from a *different* coordinator waits (the
                // blocking fallback) — speculating it would produce a
                // dependency its own shard cannot validate. Residual
                // cross-partition deadlocks are broken by the
                // coordinator's timeout expiry. Checked before the depth
                // cap so the wait is counted at depth 0 (blocking) too.
                if let Some(front) = self.unexecuted.front() {
                    if front.multi_partition
                        && !self.local_only
                        && !self.sequenced
                        && !self.all_same_coordinator(front.coordinator)
                    {
                        if self.blocked_on != Some(front.txn) {
                            self.blocked_on = Some(front.txn);
                            self.counters.cross_coord_waits += 1;
                        }
                        return;
                    }
                }
                if self.unfinished > 0
                    || self.speculation_depth() >= self.max_depth
                    || self.unexecuted.is_empty()
                {
                    return;
                }
                // Speculation past a transaction that voted abort here
                // would be squashed whatever the decision (module docs).
                // Under `AssumeAll` such a transaction is always the tail:
                // nothing has been speculated past it.
                if self.policy == ConflictPolicy::AssumeAll {
                    debug_assert!(
                        !self.uncommitted.iter().rev().skip(1).any(|u| u.voted_abort),
                        "speculated past a doomed transaction"
                    );
                    if let Some(doomed) = self.uncommitted.back().filter(|u| u.voted_abort) {
                        if self.doomed_on != Some(doomed.txn) {
                            self.doomed_on = Some(doomed.txn);
                            self.counters.doomed_waits += 1;
                        }
                        return;
                    }
                }
                let task = self.unexecuted.pop_front().expect("checked non-empty");
                self.blocked_on = None;
                self.speculate(task, engine, out);
            }
        }
    }

    /// Non-speculative single-partition execution: no undo buffer unless
    /// the procedure can user-abort; commits immediately (paper §3.2).
    fn run_sp_fast_path(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        out: &mut Outbox<E::Output>,
    ) {
        let undo = task.can_abort;
        let outcome = engine.execute(task.txn, &task.fragment, undo);
        let cost = self.costs.fragment_cost(outcome.ops, undo, false, false);
        out.charge(cost);
        self.counters.fragments_executed += 1;
        self.counters.execution_ns += cost.0;
        match outcome.result {
            Ok(payload) => {
                if undo {
                    engine.forget(task.txn);
                } else {
                    self.counters.fast_path += 1;
                }
                self.counters.committed += 1;
                out.send_client(task.client, task.txn, TxnResult::Committed(payload));
            }
            Err(reason) => {
                engine.rollback(task.txn);
                self.counters.aborted += 1;
                out.send_client(task.client, task.txn, TxnResult::Aborted(reason));
            }
        }
        self.attempts.remove(&task.txn);
    }

    /// Begin a multi-partition transaction as the non-speculative head.
    fn start_mp_head(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        out: &mut Outbox<E::Output>,
    ) {
        debug_assert!(self.uncommitted.is_empty());
        let attempt = self.attempts.get(&task.txn).copied().unwrap_or(0);
        let lock_set = if self.track_sets() {
            engine.lock_set(&task.fragment)
        } else {
            Vec::new()
        };
        let outcome = engine.execute(task.txn, &task.fragment, true);
        self.charge_exec(out, outcome.ops, true);
        let finished = task.last_fragment;
        let voted_abort = outcome.result.is_err();
        let vote = Self::vote_for(&outcome.result, task.last_fragment);
        out.send_coordinator(
            task.coordinator,
            FragmentResponse {
                txn: task.txn,
                partition: self.me,
                round: task.round,
                attempt,
                payload: outcome.result,
                vote,
                depends_on: None,
            },
        );
        self.uncommitted.push_back(Uncommitted {
            txn: task.txn,
            coordinator: task.coordinator,
            client: task.client,
            multi_partition: true,
            attempt,
            finished_locally: finished,
            voted_abort,
            buffered_result: None,
            held_responses: Vec::new(),
            first_task: task,
            pending_continuations: VecDeque::new(),
            lock_set,
        });
        if !finished {
            self.unfinished += 1;
        }
    }

    /// Execute one queued transaction speculatively.
    fn speculate(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        out: &mut Outbox<E::Output>,
    ) {
        debug_assert!(!self.uncommitted.is_empty() && self.unfinished == 0);
        let attempt = self.attempts.get(&task.txn).copied().unwrap_or(0);
        let lock_set = if self.track_sets() {
            engine.lock_set(&task.fragment)
        } else {
            Vec::new()
        };
        // Speculative executions always record undo, even for transactions
        // that cannot user-abort: they may be squashed.
        let outcome = engine.execute(task.txn, &task.fragment, true);
        self.charge_exec(out, outcome.ops, task.multi_partition);
        self.counters.speculative_executions += 1;

        let mut entry = Uncommitted {
            txn: task.txn,
            coordinator: task.coordinator,
            client: task.client,
            multi_partition: task.multi_partition,
            attempt,
            finished_locally: task.last_fragment,
            voted_abort: task.multi_partition && outcome.result.is_err(),
            buffered_result: None,
            held_responses: Vec::new(),
            first_task: task,
            pending_continuations: VecDeque::new(),
            lock_set,
        };
        let task = &entry.first_task;

        if !task.multi_partition {
            // Local speculation: buffer the client result until promotion.
            // (A speculative user-abort is also buffered: whether the
            // procedure aborts can depend on speculative state, so the
            // outcome is only final once it becomes non-speculative.)
            entry.finished_locally = true;
            entry.buffered_result = Some(match outcome.result {
                Ok(p) => TxnResult::Committed(p),
                Err(r) => TxnResult::Aborted(r),
            });
        } else {
            // Multi-partition speculation (§4.2.2): release the response,
            // tagged with its dependency, only if every uncommitted
            // transaction shares this coordinator; otherwise hold it until
            // promotion (plain local speculation of the first fragment).
            let vote = Self::vote_for(&outcome.result, task.last_fragment);
            let response = FragmentResponse {
                txn: task.txn,
                partition: self.me,
                round: task.round,
                attempt,
                payload: outcome.result,
                vote,
                depends_on: self.last_mp_dep(),
            };
            if self.local_only {
                // §4.2.1-only mode (Figure 10): hold until promotion.
                entry.held_responses.push(response);
            } else {
                // Same-coordinator chain (the cross-shard case was
                // bounced before execution): release with the dependency.
                out.send_coordinator(task.coordinator, response);
            }
        }

        if !entry.finished_locally {
            self.unfinished += 1;
        }
        self.uncommitted.push_back(entry);
    }

    /// Execute a continuation fragment for the (non-speculative) head.
    fn run_head_fragment(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        out: &mut Outbox<E::Output>,
    ) {
        let mut extra_locks = if self.track_sets() {
            engine.lock_set(&task.fragment)
        } else {
            Vec::new()
        };
        let outcome = engine.execute(task.txn, &task.fragment, true);
        self.charge_exec(out, outcome.ops, true);
        let vote = Self::vote_for(&outcome.result, task.last_fragment);
        let head = self.uncommitted.front_mut().expect("head exists");
        debug_assert_eq!(head.txn, task.txn);
        debug_assert!(!head.finished_locally, "fragment after prepare");
        head.lock_set.append(&mut extra_locks);
        head.voted_abort |= outcome.result.is_err();
        if task.last_fragment {
            head.finished_locally = true;
            self.unfinished -= 1;
        }
        let response = FragmentResponse {
            txn: task.txn,
            partition: self.me,
            round: task.round,
            attempt: head.attempt,
            payload: outcome.result,
            vote,
            depends_on: None,
        };
        out.send_coordinator(task.coordinator, response);
        // Speculation may begin now that the head finished locally.
        self.pump(engine, out);
    }

    /// After the head resolves, commit speculative single-partition
    /// transactions from the front of the queue and promote the next
    /// multi-partition transaction (if any) to non-speculative head.
    fn promote(&mut self, engine: &mut E, out: &mut Outbox<E::Output>) {
        while let Some(next) = self.uncommitted.front_mut() {
            if next.multi_partition {
                // New head. Release held responses (different-coordinator
                // case) and run parked continuations.
                let coordinator = next.coordinator;
                // `take` moves the buffers out without copying them.
                let held = std::mem::take(&mut next.held_responses);
                for r in held {
                    out.send_coordinator(coordinator, r);
                }
                let conts = std::mem::take(&mut next.pending_continuations);
                for task in conts {
                    self.run_head_fragment(task, engine, out);
                }
                return;
            }
            // Speculative single-partition transaction: commit it now and
            // release its buffered result ("transactions are dequeued from
            // the head of the queue and results are sent", §4.2.1).
            let txn = next.txn;
            let client = next.client;
            let result = next
                .buffered_result
                .take()
                .expect("speculative SP has a buffered result");
            engine.forget(txn);
            match &result {
                TxnResult::Committed(_) => self.counters.committed += 1,
                TxnResult::Aborted(_) => self.counters.aborted += 1,
            }
            out.send_client(client, txn, result);
            self.attempts.remove(&txn);
            self.uncommitted.pop_front();
        }
    }

    /// Squash speculative transactions after queue position `pos`,
    /// re-queueing their round-0 fragments in original order. Under
    /// `AssumeAll` everything after `pos` is squashed; under `Precise`
    /// only transactions whose read/write sets (transitively) intersect
    /// the aborted transaction's writes.
    fn squash_after(&mut self, pos: usize, engine: &mut E, out: &mut Outbox<E::Output>) {
        if self.policy == ConflictPolicy::AssumeAll {
            while self.uncommitted.len() > pos + 1 {
                let u = self.uncommitted.pop_back().expect("non-empty");
                self.squash(u, engine, out);
            }
            return;
        }
        // Decide the squash set in forward (execution) order: conflicts
        // propagate from earlier squashed writes to later readers.
        let mut dirty: FxHashSet<hcc_common::LockKey> = self.uncommitted[pos]
            .lock_set
            .iter()
            .filter(|(_, m)| *m == LockMode::Exclusive)
            .map(|(k, _)| *k)
            .collect();
        let squash_flags: Vec<bool> = self
            .uncommitted
            .iter()
            .skip(pos + 1)
            .map(|u| {
                let conflicts =
                    u.multi_partition || u.lock_set.iter().any(|(k, _)| dirty.contains(k));
                if conflicts {
                    for (k, m) in &u.lock_set {
                        if *m == LockMode::Exclusive {
                            dirty.insert(*k);
                        }
                    }
                }
                conflicts
            })
            .collect();
        // Roll back the squash set newest-first (undo is per-key LIFO;
        // survivors touch disjoint keys, so skipping them is safe).
        let mut kept: Vec<Uncommitted<E>> = Vec::new();
        for squash in squash_flags.into_iter().rev() {
            let u = self.uncommitted.pop_back().expect("non-empty");
            if squash {
                self.squash(u, engine, out);
            } else {
                kept.push(u);
            }
        }
        // Survivors return in their original order.
        for u in kept.into_iter().rev() {
            self.uncommitted.push_back(u);
        }
    }

    /// Undo one speculative execution and re-queue its round-0 fragment at
    /// the front of the unexecuted queue (callers squash newest-first, so
    /// the queue keeps the original order).
    fn squash(&mut self, u: Uncommitted<E>, engine: &mut E, out: &mut Outbox<E::Output>) {
        let undone = engine.rollback(u.txn);
        self.charge_rollback(out, undone);
        self.counters.squashed_executions += 1;
        if !u.finished_locally {
            self.unfinished -= 1;
        }
        // Next execution of this transaction is a new attempt.
        self.attempts.insert(u.txn, u.attempt + 1);
        // Re-queue round-0 work; parked continuations are stale (the
        // coordinator re-drives later rounds from fresh responses).
        debug_assert_eq!(u.first_task.round, 0);
        self.unexecuted.push_front(u.first_task);
    }
}

impl<E: ExecutionEngine> Scheduler<E> for SpeculativeScheduler<E> {
    fn on_fragment(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        _now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        if let Some(idx) = self.position(task.txn) {
            if idx == 0 {
                // "fragment continues active multi-partition transaction".
                self.run_head_fragment(task, engine, out);
            } else {
                // Continuation of a speculative transaction: park it until
                // promotion (only first fragments are speculated, §4.2.2).
                self.uncommitted[idx].pending_continuations.push_back(task);
            }
            return;
        }
        if task.round > 0 {
            // A continuation for a transaction we no longer hold: its
            // earlier rounds were squashed by a cascading abort, so this
            // fragment was computed from discarded results. Drop it — the
            // coordinator re-drives the round after seeing fresh responses
            // (FIFO delivery guarantees any still-valid continuation finds
            // its transaction in the uncommitted queue).
            self.stale_fragments_dropped += 1;
            return;
        }
        self.unexecuted.push_back(task);
        self.pump(engine, out);
    }

    fn on_decision(
        &mut self,
        decision: Decision,
        engine: &mut E,
        _now: Nanos,
        out: &mut Outbox<E::Output>,
    ) -> bool {
        let Some(pos) = self.position(decision.txn) else {
            if !decision.commit {
                // An abort can reach us while the transaction's round-0
                // fragments are still *queued*: either squashed back into
                // the unexecuted queue awaiting re-execution, or parked
                // behind a cross-coordinator wait. The coordinator's
                // expiry/failover fan-out goes to every participant that
                // ever responded, and a squash can race with the decision
                // in flight — so this is a legitimate abort of queued
                // work, not a stray: drop the fragments and move on.
                let before = self.unexecuted.len();
                self.unexecuted.retain(|t| t.txn != decision.txn);
                let purged = before != self.unexecuted.len();
                if purged || self.attempts.remove(&decision.txn).is_some() {
                    if purged {
                        self.counters.aborted += 1;
                    }
                    if self.blocked_on == Some(decision.txn) {
                        self.blocked_on = None;
                    }
                    self.pump(engine, out);
                    return false;
                }
            }
            // Unknown transaction: only possible after a failover, when the
            // coordinator's abort fan-out reaches the promoted backup for a
            // transaction that died with the old primary. Counted so
            // healthy runs can assert it never happens.
            self.counters.stray_decisions += 1;
            return true;
        };
        // Commits arrive in dependency order (head first). Aborts may
        // target any position: a failover can abort a transaction that
        // was speculated mid-chain (the squash machinery below handles
        // any `pos`). Checked in release too: past it, a commit for any
        // other transaction would commit the head in its place.
        assert!(
            pos == 0 || !decision.commit,
            "commit decisions arrive in dependency order"
        );

        if decision.commit {
            let head = self.uncommitted.pop_front().expect("head exists");
            debug_assert!(head.finished_locally, "commit before prepare");
            engine.forget(head.txn);
            self.counters.committed += 1;
            if head.multi_partition {
                self.counters.committed_mp += 1;
            }
            self.attempts.remove(&head.txn);
            self.promote(engine, out);
        } else {
            // Cascading abort: squash all speculative successors, then
            // undo the aborted transaction itself. (Under the precise
            // policy, non-conflicting survivors may remain behind it.)
            self.squash_after(pos, engine, out);
            let u = self.uncommitted.remove(pos).expect("aborted txn present");
            debug_assert_eq!(u.txn, decision.txn);
            let undone = engine.rollback(u.txn);
            self.charge_rollback(out, undone);
            if !u.finished_locally {
                self.unfinished -= 1;
            }
            self.counters.aborted += 1;
            self.attempts.remove(&u.txn);
            // Under the precise policy, non-conflicting speculative
            // single-partition survivors are now valid: commit them (and
            // promote the next multi-partition transaction, if any).
            self.promote(engine, out);
        }
        self.pump(engine, out);
        false
    }

    fn on_tick(&mut self, _engine: &mut E, _now: Nanos, _out: &mut Outbox<E::Output>) {}

    fn counters(&self) -> SchedulerCounters {
        self.counters
    }

    fn is_idle(&self) -> bool {
        self.uncommitted.is_empty() && self.unexecuted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::PartitionOut;
    use crate::testkit::{TestEngine, TestFragment};
    use hcc_common::{AbortReason, ClientId, Scheme};

    const NOW: Nanos = Nanos(0);

    fn sched(max_depth: usize, policy: ConflictPolicy) -> SpeculativeScheduler<TestEngine> {
        let config = SystemConfig::new(Scheme::Speculative);
        SpeculativeScheduler::new(&config, PartitionId(0), max_depth, policy)
    }

    fn sp(client: u32, seq: u32, frag: TestFragment) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(client), seq),
            coordinator: CoordinatorRef::Client(ClientId(client)),
            client: ClientId(client),
            fragment: frag,
            multi_partition: false,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn mp(seq: u32, frag: TestFragment, last: bool, round: u32) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(99), seq),
            coordinator: CoordinatorRef::Central(hcc_common::CoordinatorId(0)),
            client: ClientId(99),
            fragment: frag,
            multi_partition: true,
            last_fragment: last,
            round,
            can_abort: false,
        }
    }

    fn mp_txid(seq: u32) -> TxnId {
        TxnId::new(ClientId(99), seq)
    }

    fn setup() -> (
        SpeculativeScheduler<TestEngine>,
        TestEngine,
        Outbox<Vec<(u64, i64)>>,
    ) {
        (
            sched(usize::MAX, ConflictPolicy::AssumeAll),
            // Paper example state: x = 5 lives here (key 1).
            TestEngine::with_data(&[(1, 5), (2, 17)]),
            Outbox::new(CostModel::default()),
        )
    }

    fn client_results(msgs: &[PartitionOut<Vec<(u64, i64)>>]) -> Vec<(TxnId, bool)> {
        msgs.iter()
            .filter_map(|m| match m {
                PartitionOut::ToClient { txn, result, .. } => Some((*txn, result.is_committed())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sp_fast_path_when_idle() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 6);
        assert_eq!(s.counters().fast_path, 1);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    /// The paper's §4.2.1 example: multi-round transaction A swaps x and y;
    /// B1 and B2 increment x on P1. B1/B2 must not run until A's final
    /// fragment executes, then run speculatively, and their results are
    /// released only when A commits.
    #[test]
    fn paper_example_local_speculation() {
        let (mut s, mut e, mut out) = setup();
        // Round 0 of A: read x. Not the last fragment here.
        s.on_fragment(
            mp(1, TestFragment::read(&[1]), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // B1, B2 arrive while A is unfinished: must NOT speculate.
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        s.on_fragment(sp(2, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 5, "speculation before A finishes would be wrong");
        assert_eq!(s.unexecuted_len(), 2);
        out.take();

        // Final fragment of A: write x = 17 (the swap). Now speculation
        // begins: B1 computes 18, B2 computes 19, both buffered.
        s.on_fragment(
            mp(1, TestFragment::set(1, 17), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 19);
        assert_eq!(s.speculation_depth(), 2);
        let (msgs, _) = out.take();
        assert!(
            client_results(&msgs).is_empty(),
            "speculative results must not escape before commit"
        );
        assert_eq!(s.counters().speculative_executions, 2);

        // A commits: B1 and B2 results released in order.
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        let results = client_results(&msgs);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|(_, ok)| *ok));
        assert_eq!(e.get(1), 19);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    /// Same example, but A aborts: B1 and B2 are undone and re-executed
    /// against the original value of x.
    #[test]
    fn paper_example_abort_cascade() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::set(1, 17), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        s.on_fragment(sp(2, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 19, "17 + 1 + 1 speculatively");
        out.take();

        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // A's write undone; B1/B2 re-executed on x = 5: 6 then 7.
        assert_eq!(e.get(1), 7);
        let (msgs, _) = out.take();
        let results = client_results(&msgs);
        assert_eq!(results.len(), 2, "B1 and B2 commit after re-execution");
        assert!(results.iter().all(|(_, ok)| *ok));
        assert_eq!(s.counters().squashed_executions, 2);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn mp_speculation_sends_response_with_dependency() {
        let (mut s, mut e, mut out) = setup();
        // A: simple MP fragment (last). C: another simple MP fragment.
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        s.on_fragment(
            mp(2, TestFragment::add(1, 10), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        let resp = msgs
            .iter()
            .find_map(|m| match m {
                PartitionOut::ToCoordinator { response, .. } if response.txn == mp_txid(2) => {
                    Some(response)
                }
                _ => None,
            })
            .expect("speculative MP response released (same coordinator)");
        assert_eq!(
            resp.depends_on,
            Some(SpecDep {
                txn: mp_txid(1),
                attempt: 0
            })
        );
        assert_eq!(resp.vote, Some(Vote::Commit));
        assert_eq!(e.get(1), 16, "5 + 1 + 10");
    }

    #[test]
    fn chained_mp_commits_in_order() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            mp(2, TestFragment::add(1, 10), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 0, TestFragment::add(1, 100)), &mut e, NOW, &mut out);
        out.take();
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // C (mp 2) becomes head; SP still buffered behind it.
        let (msgs, _) = out.take();
        assert!(client_results(&msgs).is_empty());
        s.on_decision(
            Decision {
                txn: mp_txid(2),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        assert_eq!(client_results(&msgs).len(), 1, "SP released after C");
        assert_eq!(e.get(1), 116);
        assert!(s.is_idle());
    }

    #[test]
    fn mp_abort_cascade_bumps_attempt_and_resends() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            mp(2, TestFragment::add(1, 10), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        // A aborts: C squashed and immediately re-executed as the new head.
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 15, "A's +1 undone, C's +10 re-applied");
        let (msgs, _) = out.take();
        let resp = msgs
            .iter()
            .find_map(|m| match m {
                PartitionOut::ToCoordinator { response, .. } if response.txn == mp_txid(2) => {
                    Some(response)
                }
                _ => None,
            })
            .expect("fresh response resent");
        assert_eq!(resp.attempt, 1, "re-execution is a new attempt");
        assert_eq!(resp.depends_on, None, "new head is non-speculative");
        assert_eq!(s.counters().squashed_executions, 1);
    }

    /// An MP transaction whose coordinator differs from the chain's
    /// (cross-shard, or a client-driver vs a shard) waits unexecuted —
    /// the blocking fallback of the same-coordinator-chain rule — and is
    /// admitted once the chain resolves.
    #[test]
    fn different_coordinator_mp_waits_until_chain_resolves() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        let mut other = mp(2, TestFragment::add(1, 10), true, 0);
        other.coordinator = CoordinatorRef::Client(ClientId(7));
        let other_txn = other.txn;
        s.on_fragment(other, &mut e, NOW, &mut out);
        let (msgs, _) = out.take();
        assert!(
            !msgs.iter().any(|m| matches!(
                m,
                PartitionOut::ToCoordinator { response, .. } if response.txn == other_txn
            )),
            "cross-coordinator fragment must wait, not execute"
        );
        assert_eq!(e.get(1), 6, "not executed while waiting");
        assert_eq!(s.counters().cross_coord_waits, 1);
        assert_eq!(s.unexecuted_len(), 1, "queued, not dropped");
        // Same-shard SP work behind the waiter also waits (FIFO).
        s.on_fragment(sp(1, 0, TestFragment::add(1, 100)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 6);
        assert_eq!(
            s.counters().cross_coord_waits,
            1,
            "stall counted once per blocking transaction"
        );
        out.take();

        // Chain resolves: the waiter becomes the new head and executes.
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        let dest = msgs
            .iter()
            .find_map(|m| match m {
                PartitionOut::ToCoordinator { response, dest } if response.txn == other_txn => {
                    Some(*dest)
                }
                _ => None,
            })
            .expect("waiter admitted once the chain resolved");
        assert_eq!(dest, CoordinatorRef::Client(ClientId(7)));
        assert_eq!(e.get(1), 116, "waiter executed, then the SP speculated");
    }

    /// Two shards' transactions at one partition: the second shard's
    /// waits; a third same-shard-as-head transaction behind it also waits
    /// (FIFO — the chain cannot be extended past a waiting cross-shard
    /// transaction, which is what keeps cross-shard waits bounded).
    #[test]
    fn cross_shard_waiter_blocks_chain_extension() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        let mut other = mp(2, TestFragment::add(1, 10), true, 0);
        other.coordinator = CoordinatorRef::Central(hcc_common::CoordinatorId(1));
        s.on_fragment(other, &mut e, NOW, &mut out);
        // A same-shard-as-head MP transaction arrives behind the waiter:
        // it must NOT jump the queue into the head's chain.
        s.on_fragment(
            mp(3, TestFragment::add(1, 100), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 6, "only the head executed");
        assert_eq!(s.unexecuted_len(), 2);
        assert_eq!(s.counters().cross_coord_waits, 1);
        out.take();

        // Head commits; the cross-shard waiter becomes head; the shard-0
        // transaction now waits behind *it* (roles swap).
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 16, "waiter admitted as the new head");
        assert_eq!(
            s.counters().cross_coord_waits,
            2,
            "the shard-0 transaction now stalls behind shard 1"
        );
    }

    #[test]
    fn speculative_multi_round_continuation_parked_until_promotion() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // C is multi-round: round 0 is NOT its last fragment.
        s.on_fragment(
            mp(2, TestFragment::read(&[1]), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        // Round 1 arrives while C is speculative: must be parked.
        s.on_fragment(
            mp(2, TestFragment::set(1, 42), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 6, "round 1 must not execute while speculative");
        // And no further speculation can pass the unfinished C.
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(s.unexecuted_len(), 1, "SP parked behind unfinished C");
        out.take();

        // A commits -> C promoted -> parked round 1 executes (setting 42),
        // after which the parked SP speculates on top (+1).
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 43, "continuation ran, then SP speculated");
        let (msgs, _) = out.take();
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToCoordinator { response, .. }
                if response.txn == mp_txid(2) && response.round == 1
                    && response.vote == Some(Vote::Commit)
        )));
        assert_eq!(s.speculation_depth(), 1, "SP speculative behind C");
    }

    #[test]
    fn stale_continuation_for_unknown_txn_dropped() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(7, TestFragment::set(1, 9), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.stale_fragments_dropped, 1);
        assert_eq!(e.get(1), 5);
        assert!(s.is_idle());
    }

    #[test]
    fn max_depth_limits_speculation() {
        let (mut s, mut e, mut out) = (
            sched(1, ConflictPolicy::AssumeAll),
            TestEngine::with_data(&[(1, 0)]),
            Outbox::new(CostModel::default()),
        );
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        s.on_fragment(sp(2, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(s.speculation_depth(), 1, "depth capped");
        assert_eq!(s.unexecuted_len(), 1);
        assert_eq!(e.get(1), 2, "only one SP speculated");
    }

    #[test]
    fn speculative_user_abort_buffered_and_final_on_commit() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let mut failing = sp(1, 0, TestFragment::failing());
        failing.can_abort = true;
        s.on_fragment(failing, &mut e, NOW, &mut out);
        let (msgs, _) = out.take();
        assert!(
            client_results(&msgs).is_empty(),
            "aborted result buffered too"
        );
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        let results = client_results(&msgs);
        assert_eq!(results.len(), 1);
        assert!(!results[0].1, "user abort delivered after promotion");
    }

    #[test]
    fn occ_policy_keeps_nonconflicting_survivors() {
        let mut s = sched(usize::MAX, ConflictPolicy::Precise);
        let mut e = TestEngine::with_data(&[(1, 5), (2, 100), (3, 200)]);
        let mut out = Outbox::new(CostModel::default());
        // Head MP writes key 1.
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // SP A touches key 2 (disjoint), SP B touches key 1 (conflicts).
        s.on_fragment(sp(1, 0, TestFragment::add(2, 1)), &mut e, NOW, &mut out);
        s.on_fragment(sp(2, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        out.take();
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // Only the conflicting SP was squashed and re-run; the disjoint one
        // survived (committed at promotion after the abort).
        assert_eq!(s.counters().squashed_executions, 1);
        assert_eq!(e.get(1), 6, "head's +1 undone; SP B re-ran on 5");
        assert_eq!(e.get(2), 101, "survivor kept");
        let (msgs, _) = out.take();
        assert_eq!(client_results(&msgs).len(), 2);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn occ_policy_squashes_transitive_conflicts() {
        let mut s = sched(usize::MAX, ConflictPolicy::Precise);
        let mut e = TestEngine::with_data(&[(1, 0), (2, 0), (3, 0)]);
        let mut out = Outbox::new(CostModel::default());
        // Head writes key 1. SP A copies key1 -> writes key 2 (conflicts
        // with head). SP B reads key 2 -> writes key 3 (conflicts with A,
        // not with head directly).
        s.on_fragment(
            mp(1, TestFragment::set(1, 7), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            sp(
                1,
                0,
                TestFragment {
                    ops: vec![
                        crate::testkit::TestOp::Read(1),
                        crate::testkit::TestOp::Add(2, 1),
                    ],
                    fail: false,
                },
            ),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            sp(
                2,
                0,
                TestFragment {
                    ops: vec![
                        crate::testkit::TestOp::Read(2),
                        crate::testkit::TestOp::Add(3, 1),
                    ],
                    fail: false,
                },
            ),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // Both SPs squashed (transitive) and re-run.
        assert_eq!(s.counters().squashed_executions, 2);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn counters_track_committed_and_aborted() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(sp(1, 0, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        let c = s.counters();
        assert_eq!(c.committed, 1);
        assert_eq!(c.aborted, 1);
    }

    fn decide(seq: u32, commit: bool) -> Decision {
        Decision {
            txn: mp_txid(seq),
            commit,
        }
    }

    /// Head H (mp 1) votes commit, M (mp 2) fails here, then a
    /// single-partition transaction S arrives, touching neither's key.
    fn feed_doomed_chain(
        s: &mut SpeculativeScheduler<TestEngine>,
        e: &mut TestEngine,
        out: &mut Outbox<Vec<(u64, i64)>>,
    ) {
        s.on_fragment(mp(1, TestFragment::add(1, 1), true, 0), e, NOW, out);
        s.on_fragment(mp(2, TestFragment::failing(), true, 0), e, NOW, out);
        s.on_fragment(sp(1, 0, TestFragment::add(2, 1)), e, NOW, out);
    }

    /// Work speculated past M would be squashed whatever H's decision, so
    /// S waits unexecuted until M's abort and then runs once, unsquashed.
    #[test]
    fn nothing_speculates_past_a_speculated_abort_vote() {
        let (mut s, mut e, mut out) = setup();
        feed_doomed_chain(&mut s, &mut e, &mut out);
        assert_eq!(s.counters().speculative_executions, 1, "M only");
        assert_eq!(s.unexecuted_len(), 1, "S waits behind M");
        assert_eq!(e.get(2), 17);

        s.on_decision(decide(1, true), &mut e, NOW, &mut out);
        assert_eq!(s.unexecuted_len(), 1, "M is head now, still doomed");
        assert_eq!(s.counters().speculative_executions, 1);
        assert_eq!(s.counters().squashed_executions, 0);
        out.take();

        s.on_decision(decide(2, false), &mut e, NOW, &mut out);
        let (msgs, _) = out.take();
        assert_eq!(
            client_results(&msgs),
            vec![(TxnId::new(ClientId(1), 0), true)]
        );
        assert_eq!(e.get(2), 18);
        let c = s.counters();
        assert_eq!(c.speculative_executions, 1);
        assert_eq!(c.squashed_executions, 0);
        assert_eq!(c.fast_path, 1, "S ran once, non-speculatively");
        assert_eq!(c.doomed_waits, 1, "one transaction, counted once");
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn nothing_speculates_past_a_head_that_voted_abort() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::failing(), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 0, TestFragment::add(2, 1)), &mut e, NOW, &mut out);
        s.on_fragment(
            mp(2, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.unexecuted_len(), 2);
        assert_eq!(s.counters().speculative_executions, 0);
        assert_eq!((e.get(1), e.get(2)), (5, 17));

        // The abort lets S run on the fast path and mp 2 become head.
        s.on_decision(decide(1, false), &mut e, NOW, &mut out);
        assert_eq!((e.get(1), e.get(2)), (6, 18));
        assert_eq!(s.unexecuted_len(), 0);
        let c = s.counters();
        assert_eq!(c.speculative_executions, 0);
        assert_eq!(c.squashed_executions, 0);
        assert_eq!(c.doomed_waits, 1);
    }

    /// A multi-round head whose last fragment fails here is doomed too.
    #[test]
    fn nothing_speculates_past_a_failed_continuation() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::read(&[1]), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 0, TestFragment::add(2, 1)), &mut e, NOW, &mut out);
        s.on_fragment(
            mp(1, TestFragment::failing(), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.unexecuted_len(), 1, "S waits behind the failed head");
        assert_eq!(s.counters().speculative_executions, 0);
        s.on_decision(decide(1, false), &mut e, NOW, &mut out);
        assert_eq!(e.get(2), 18);
        assert_eq!(s.counters().fast_path, 1);
        assert_eq!(s.counters().doomed_waits, 1);
        assert!(s.is_idle());
    }

    /// OCC's disjoint single-partition successors survive M's abort, so
    /// the rule does not apply under the precise policy.
    #[test]
    fn precise_policy_speculates_past_an_abort_vote() {
        let mut s = sched(usize::MAX, ConflictPolicy::Precise);
        let mut e = TestEngine::with_data(&[(1, 5), (2, 17)]);
        let mut out = Outbox::new(CostModel::default());
        feed_doomed_chain(&mut s, &mut e, &mut out);
        assert_eq!(s.unexecuted_len(), 0);
        assert_eq!(s.counters().speculative_executions, 2, "M and S");
        assert_eq!(s.counters().doomed_waits, 0);
        assert_eq!(e.get(2), 18);
    }

    /// Blocking never speculates, so the rule leaves it as it was: these
    /// are the counters the scheduler reported before the rule existed.
    #[test]
    fn depth_zero_counters_are_unchanged_by_the_abort_vote_rule() {
        let (mut s, mut e, mut out) = blocking_setup();
        feed_doomed_chain(&mut s, &mut e, &mut out);
        assert_eq!(s.unexecuted_len(), 2);
        s.on_decision(decide(1, true), &mut e, NOW, &mut out);
        s.on_decision(decide(2, false), &mut e, NOW, &mut out);
        assert!(s.is_idle());
        assert_eq!(
            s.counters(),
            SchedulerCounters {
                fragments_executed: 3,
                committed: 2,
                committed_mp: 1,
                aborted: 1,
                fast_path: 1,
                execution_ns: 97_563,
                ..Default::default()
            }
        );
    }

    // Blocking (§4.1, Figure 2) is this scheduler at depth 0.

    fn blocking_setup() -> (
        SpeculativeScheduler<TestEngine>,
        TestEngine,
        Outbox<Vec<(u64, i64)>>,
    ) {
        (
            sched(0, ConflictPolicy::AssumeAll),
            TestEngine::with_data(&[(1, 100), (2, 200)]),
            Outbox::new(CostModel::default()),
        )
    }

    #[test]
    fn single_partition_commits_immediately() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(sp(1, 1, TestFragment::add(1, 5)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 105);
        let (msgs, cpu) = out.take();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToClient {
                result: TxnResult::Committed(_),
                ..
            }
        ));
        assert!(cpu > Nanos::ZERO);
        assert!(s.is_idle());
        assert_eq!(s.counters().fast_path, 1);
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn user_abort_single_partition() {
        let (mut s, mut e, mut out) = blocking_setup();
        let mut task = sp(1, 1, TestFragment::failing());
        task.can_abort = true;
        s.on_fragment(task, &mut e, NOW, &mut out);
        let (msgs, _) = out.take();
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToClient {
                result: TxnResult::Aborted(AbortReason::User),
                ..
            }
        ));
        assert_eq!(s.counters().aborted, 1);
    }

    #[test]
    fn mp_blocks_queued_sp_until_decision() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToCoordinator { response, .. }
                if response.vote == Some(Vote::Commit)
        ));
        // SP arrives while MP active: queued, not executed.
        s.on_fragment(sp(1, 2, TestFragment::add(1, 10)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 101, "queued SP must not execute");
        assert_eq!(s.unexecuted_len(), 1);
        assert!(out.take().0.is_empty());

        // Commit decision releases the queue.
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 111);
        let (msgs, _) = out.take();
        assert_eq!(msgs.len(), 1);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn abort_rolls_back_mp_effects() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 101);
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 100, "abort must undo MP writes");
        assert_eq!(s.counters().aborted, 1);
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn multi_round_mp_continues_without_queueing() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::read(&[1]), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToCoordinator { response, .. } if response.vote.is_none()
        ));
        // Round 1 continues the same transaction.
        s.on_fragment(
            mp(1, TestFragment::set(1, 77), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 77);
        let (msgs, _) = out.take();
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToCoordinator { response, .. }
                if response.vote == Some(Vote::Commit) && response.round == 1
        ));
        // Abort undoes both rounds.
        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 100);
    }

    #[test]
    fn mp_user_abort_votes_abort() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::failing(), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let (msgs, _) = out.take();
        assert!(matches!(
            &msgs[0],
            PartitionOut::ToCoordinator { response, .. }
                if matches!(response.vote, Some(Vote::Abort(AbortReason::User)))
        ));
    }

    #[test]
    fn queued_mp_becomes_active_after_drain() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 2, TestFragment::add(2, 1)), &mut e, NOW, &mut out);
        s.on_fragment(
            mp(3, TestFragment::add(2, 5), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(1, 4, TestFragment::add(2, 7)), &mut e, NOW, &mut out);
        assert_eq!(s.unexecuted_len(), 3);
        out.take();

        s.on_decision(
            Decision {
                txn: mp_txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // SP(2) ran, MP(3) became active (executed, awaiting decision),
        // SP(4) still queued behind it.
        assert_eq!(e.get(2), 206);
        assert_eq!(s.unexecuted_len(), 1);
        assert!(!s.is_idle());
        let (msgs, _) = out.take();
        // One client reply (SP 2) + one coordinator response (MP 3).
        assert_eq!(msgs.len(), 2);

        s.on_decision(
            Decision {
                txn: mp_txid(3),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(2), 213);
        assert!(s.is_idle());
    }

    #[test]
    fn charges_more_cpu_for_undo_execution() {
        let costs = CostModel::default();
        let mut s = sched(0, ConflictPolicy::AssumeAll);
        let mut e = TestEngine::with_data(&[(1, 0)]);
        let mut out = Outbox::new(costs);
        s.on_fragment(sp(1, 1, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        let (_, plain) = out.take();
        let mut task = sp(1, 2, TestFragment::add(1, 1));
        task.can_abort = true; // forces undo buffer
        s.on_fragment(task, &mut e, NOW, &mut out);
        let (_, with_undo) = out.take();
        assert!(with_undo > plain, "{with_undo} vs {plain}");
    }

    /// A cross-shard multi-partition transaction reaching the head of the
    /// queue behind another shard's head is one wait at depth 0 too: the
    /// same-coordinator check runs before the depth cap returns.
    #[test]
    fn depth_zero_counts_a_cross_shard_head_wait() {
        let (mut s, mut e, mut out) = blocking_setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let mut other = mp(2, TestFragment::add(1, 10), true, 0);
        other.coordinator = CoordinatorRef::Central(hcc_common::CoordinatorId(1));
        s.on_fragment(other, &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 101, "the waiter does not execute");
        assert_eq!(s.unexecuted_len(), 1);
        assert_eq!(s.counters().cross_coord_waits, 1);
        assert_eq!(s.counters().speculative_executions, 0);
    }
}
