//! The lightweight locking scheme (paper §4.3).
//!
//! Strict two-phase locking adapted to single-threaded partitions:
//!
//! * **No-lock fast path**: "When our locking system has no active
//!   transactions and receives a single partition transaction, the
//!   transaction can be executed without locks and undo information" —
//!   locks are only acquired while multi-partition transactions are
//!   active.
//! * Locks are acquired per fragment from the pre-declared lock set; a
//!   conflicting request suspends the transaction in the lock manager's
//!   FIFO queue (logical concurrency only — execution stays serial).
//! * Local deadlocks are broken by waits-for cycle detection, preferring
//!   single-partition victims; distributed deadlocks by wait timeouts.
//! * Multi-partition transactions are coordinated *by the client* (no
//!   central coordinator): responses go to `task.coordinator`, which is
//!   `CoordinatorRef::Client(_)` under this scheme, and the client runs
//!   two-phase commit (`txn_driver.rs`).

use crate::engine::ExecutionEngine;
use crate::outbox::Outbox;
use crate::scheduler::Scheduler;
use hcc_common::stats::SchedulerCounters;
use hcc_common::{
    AbortReason, CostModel, Decision, FragmentResponse, FragmentTask, LockKey, Nanos, PartitionId,
    TxnId, TxnResult, Vote,
};
use hcc_locking::deadlock::{choose_victim, find_cycle};
use hcc_locking::{AcquireOutcome, LockManager, LockMode};

/// Where a registered transaction is in its lifecycle.
enum Phase<F> {
    /// Suspended acquiring locks for `task`; `locks[..next]` already held.
    Waiting {
        task: FragmentTask<F>,
        locks: Vec<(LockKey, LockMode)>,
        next: usize,
    },
    /// Multi-partition transaction between rounds (locks held, no work).
    Idle,
    /// Voted commit; awaiting the coordinator's decision (locks held).
    Prepared,
}

struct LockTxn<F> {
    client: hcc_common::ClientId,
    multi_partition: bool,
    phase: Phase<F>,
}

/// Scheduler implementing the paper's low-overhead locking scheme.
pub struct LockingScheduler<E: ExecutionEngine> {
    me: PartitionId,
    costs: CostModel,
    lock_timeout: Nanos,
    lm: LockManager,
    txns: hcc_common::FxHashMap<TxnId, LockTxn<E::Fragment>>,
    /// Multi-partition transactions aborted here (deadlock victim, lock
    /// timeout) whose abort vote is out: their coordinator's decision is
    /// still to come, so the partition is not idle until it arrives. An
    /// adaptive swap in between would hand that decision to a scheduler
    /// that never knew the transaction.
    voted_abort: hcc_common::FxHashSet<TxnId>,
    counters: SchedulerCounters,
}

impl<E: ExecutionEngine> LockingScheduler<E> {
    pub fn new(me: PartitionId, costs: CostModel, lock_timeout: Nanos) -> Self {
        LockingScheduler {
            me,
            costs,
            lock_timeout,
            lm: LockManager::new(),
            txns: hcc_common::FxHashMap::default(),
            voted_abort: hcc_common::FxHashSet::default(),
            counters: SchedulerCounters::default(),
        }
    }

    /// Currently registered (lock-holding or waiting) transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Acquire a fragment's locks in canonical (key) order, the standard
    /// local-deadlock avoidance refinement. Transactions whose fragments
    /// run on *different partitions* can still interleave inconsistently,
    /// so distributed deadlocks remain possible and are handled by timeout
    /// — exactly the behaviour the paper reports for TPC-C (§5.6).
    fn canonical(mut locks: Vec<(LockKey, LockMode)>) -> Vec<(LockKey, LockMode)> {
        locks.sort_by_key(|(k, _)| *k);
        locks
    }

    pub fn lock_stats(&self) -> hcc_locking::LockStats {
        self.lm.stats
    }

    /// Charge execution CPU plus per-lock overhead, splitting the lock
    /// portion into the lock-manager bucket (backs the §5.6 profile
    /// breakdown: "Approximately 12% of the time is spent managing the
    /// lock table, 14% is spent acquiring locks, and 6% releasing").
    fn charge_exec(
        &mut self,
        out: &mut Outbox<E::Output>,
        ops: u32,
        undo: bool,
        n_locks: usize,
        mp: bool,
    ) {
        let base = self.costs.fragment_cost(ops, undo, false, mp);
        let lock_part = Nanos(self.costs.per_lock.0 * n_locks as u64);
        out.charge(base + lock_part);
        self.counters.fragments_executed += 1;
        self.counters.lock_manager_ns += lock_part.0;
        self.counters.execution_ns += base.0;
    }

    fn charge_rollback(&mut self, out: &mut Outbox<E::Output>, undone: u32) {
        let cost = self.costs.rollback_cost(undone);
        out.charge(cost);
        self.counters.rollback_ns += cost.0;
    }

    /// The Figure-2-style fast path: no active transactions at all, so a
    /// single-partition transaction runs without locks or undo.
    fn run_fast_path(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        out: &mut Outbox<E::Output>,
    ) {
        let undo = task.can_abort;
        let outcome = engine.execute(task.txn, &task.fragment, undo);
        self.charge_exec(out, outcome.ops, undo, 0, false);
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
    }

    /// Acquire locks for `task` starting at index `next`; execute when all
    /// are held, suspend (and check for deadlock) on conflict.
    #[allow(clippy::too_many_arguments)]
    fn try_acquire(
        &mut self,
        txn: TxnId,
        task: FragmentTask<E::Fragment>,
        locks: Vec<(LockKey, LockMode)>,
        mut next: usize,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        while next < locks.len() {
            let (key, mode) = locks[next];
            match self.lm.acquire(txn, key, mode, now) {
                AcquireOutcome::Granted => {
                    self.counters.locks_granted_immediately += 1;
                    next += 1;
                }
                AcquireOutcome::Waiting => {
                    self.counters.locks_waited += 1;
                    // Suspending and later resuming the transaction costs
                    // CPU (saving/restoring execution context, §5.2).
                    out.charge(self.costs.suspend_resume);
                    self.counters.lock_manager_ns += self.costs.suspend_resume.0;
                    if let Some(t) = self.txns.get_mut(&txn) {
                        t.phase = Phase::Waiting {
                            task,
                            locks,
                            next: next + 1,
                        };
                    }
                    // A new wait edge is the only way a cycle can form.
                    if let Some(cycle) = find_cycle(&self.lm, txn) {
                        self.counters.local_deadlocks += 1;
                        self.lm.stats.deadlocks_detected += 1;
                        let victim = choose_victim(&self.lm, &cycle);
                        self.abort_txn(victim, AbortReason::DeadlockVictim, engine, now, out);
                    }
                    return;
                }
            }
        }
        self.execute_locked(txn, task, engine, now, out);
    }

    /// All locks held: run the fragment.
    fn execute_locked(
        &mut self,
        txn: TxnId,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        // "Transactions must record undo information in order to rollback
        // in case of deadlock" — multi-partition transactions always (2PC
        // can abort them); locked single-partition transactions only if
        // they can user-abort (once running they never block).
        let undo = task.multi_partition || task.can_abort;
        let n_locks = self.lm.held_count(txn);
        let outcome = engine.execute(txn, &task.fragment, undo);
        self.charge_exec(out, outcome.ops, undo, n_locks, task.multi_partition);

        if !task.multi_partition {
            match outcome.result {
                Ok(payload) => {
                    engine.forget(txn);
                    self.counters.committed += 1;
                    out.send_client(task.client, txn, TxnResult::Committed(payload));
                }
                Err(reason) => {
                    engine.rollback(txn);
                    self.counters.aborted += 1;
                    out.send_client(task.client, txn, TxnResult::Aborted(reason));
                }
            }
            self.finish_txn(txn, engine, now, out);
            return;
        }

        let vote = match (&outcome.result, task.last_fragment) {
            (Ok(_), true) => Some(Vote::Commit),
            (Err(r), _) => Some(Vote::Abort(*r)),
            (Ok(_), false) => None,
        };
        if let Some(t) = self.txns.get_mut(&txn) {
            t.phase = if task.last_fragment {
                Phase::Prepared
            } else {
                Phase::Idle
            };
        }
        out.send_coordinator(
            task.coordinator,
            FragmentResponse {
                txn,
                partition: self.me,
                round: task.round,
                attempt: 0,
                payload: outcome.result,
                vote,
                depends_on: None,
            },
        );
    }

    /// Remove a finished transaction, release its locks, and resume any
    /// transactions whose requests became grantable.
    fn finish_txn(&mut self, txn: TxnId, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>) {
        self.txns.remove(&txn);
        let woken = self.lm.release_all(txn);
        for w in woken {
            self.resume(w, engine, now, out);
        }
    }

    /// A suspended transaction's blocked request was granted: continue
    /// acquiring its remaining locks.
    fn resume(&mut self, txn: TxnId, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>) {
        let Some(t) = self.txns.get_mut(&txn) else {
            debug_assert!(false, "woke unknown txn {txn}");
            return;
        };
        let phase = std::mem::replace(&mut t.phase, Phase::Idle);
        match phase {
            Phase::Waiting { task, locks, next } => {
                self.try_acquire(txn, task, locks, next, engine, now, out);
            }
            other => {
                debug_assert!(false, "woke non-waiting txn {txn}");
                t.phase = other;
            }
        }
    }

    /// Abort a transaction locally (deadlock victim or lock timeout),
    /// informing its coordinator/client so it is aborted globally.
    fn abort_txn(
        &mut self,
        victim: TxnId,
        reason: AbortReason,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        let Some(t) = self.txns.remove(&victim) else {
            return;
        };
        let undone = engine.rollback(victim);
        self.charge_rollback(out, undone);
        self.counters.aborted += 1;
        match reason {
            AbortReason::DeadlockVictim => {}
            AbortReason::LockTimeout => self.counters.lock_timeouts += 1,
            _ => {}
        }
        // Tell whoever is waiting for this transaction.
        match &t.phase {
            Phase::Waiting { task, .. } => {
                if t.multi_partition {
                    self.voted_abort.insert(victim);
                    out.send_coordinator(
                        task.coordinator,
                        FragmentResponse {
                            txn: victim,
                            partition: self.me,
                            round: task.round,
                            attempt: 0,
                            payload: Err(reason),
                            vote: Some(Vote::Abort(reason)),
                            depends_on: None,
                        },
                    );
                } else {
                    out.send_client(t.client, victim, TxnResult::Aborted(reason));
                }
            }
            Phase::Idle | Phase::Prepared => {
                // Aborted between rounds (only reachable for timeouts of
                // idle MP transactions, which we do not trigger; kept for
                // robustness): the coordinator learns via its own timeout.
            }
        }
        let woken = self.lm.release_all(victim);
        for w in woken {
            self.resume(w, engine, now, out);
        }
    }
}

impl<E: ExecutionEngine> Scheduler<E> for LockingScheduler<E> {
    fn on_fragment(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        if self.txns.contains_key(&task.txn) {
            // Continuation of a multi-partition transaction: acquire the
            // new fragment's locks (2PL growing phase) and run it.
            debug_assert!(matches!(self.txns[&task.txn].phase, Phase::Idle));
            let locks = Self::canonical(engine.lock_set(&task.fragment));
            self.try_acquire(task.txn, task, locks, 0, engine, now, out);
            return;
        }

        // Fast path: no active transactions at all ⇒ single-partition
        // transactions skip the lock manager entirely.
        if self.txns.is_empty() && !task.multi_partition {
            self.run_fast_path(task, engine, out);
            return;
        }

        self.lm.register_txn(task.txn, task.multi_partition);
        self.txns.insert(
            task.txn,
            LockTxn {
                client: task.client,
                multi_partition: task.multi_partition,
                phase: Phase::Idle,
            },
        );
        let locks = Self::canonical(engine.lock_set(&task.fragment));
        self.try_acquire(task.txn, task, locks, 0, engine, now, out);
        debug_assert!(
            self.lm.check_invariants().is_ok(),
            "{:?}",
            self.lm.check_invariants()
        );
    }

    fn on_decision(
        &mut self,
        decision: Decision,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) -> bool {
        let Some(t) = self.txns.get(&decision.txn) else {
            // An abort for a transaction already aborted locally (deadlock
            // victim / timeout): the coordinator's abort raced with ours.
            // Idempotent. A *commit* cannot race like that — we would have
            // voted abort — so it is for a transaction that died with a
            // crashed predecessor: a stray, which the driver must not
            // acknowledge (the coordinator is about to re-deliver it).
            self.voted_abort.remove(&decision.txn);
            if decision.commit {
                self.counters.stray_decisions += 1;
            }
            return decision.commit;
        };
        if decision.commit {
            debug_assert!(matches!(t.phase, Phase::Prepared));
            engine.forget(decision.txn);
            self.counters.committed += 1;
            // Decisions only exist for two-phase-commit participants, and
            // only multi-partition transactions enter 2PC.
            self.counters.committed_mp += 1;
        } else {
            let undone = engine.rollback(decision.txn);
            self.charge_rollback(out, undone);
            self.counters.aborted += 1;
        }
        self.finish_txn(decision.txn, engine, now, out);
        false
    }

    fn on_tick(&mut self, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>) {
        // Timeout only multi-partition waits: local chains resolve via
        // cycle detection; a long multi-partition wait indicates a
        // distributed deadlock this partition cannot see (§4.3).
        let expired = self.lm.expired_waits(now, self.lock_timeout);
        for txn in expired {
            // Aborting an earlier victim releases its locks and may have
            // resumed this one: it has run and voted since the scan, and a
            // prepared transaction is the coordinator's to decide.
            let waiting = matches!(
                self.txns.get(&txn),
                Some(LockTxn {
                    phase: Phase::Waiting { .. },
                    ..
                })
            );
            if waiting && self.lm.is_multi_partition(txn) {
                self.lm.stats.timeouts += 1;
                self.abort_txn(txn, AbortReason::LockTimeout, engine, now, out);
            }
        }
    }

    fn counters(&self) -> SchedulerCounters {
        self.counters
    }

    fn is_idle(&self) -> bool {
        self.txns.is_empty() && self.voted_abort.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::PartitionOut;
    use crate::testkit::{TestEngine, TestFragment, TestOp};
    use hcc_common::{ClientId, CoordinatorRef};

    const NOW: Nanos = Nanos(0);

    fn sp(txn: u32, frag: TestFragment) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(txn), 0),
            coordinator: CoordinatorRef::Client(ClientId(txn)),
            client: ClientId(txn),
            fragment: frag,
            multi_partition: false,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn mp(txn: u32, frag: TestFragment, last: bool, round: u32) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(txn), 0),
            coordinator: CoordinatorRef::Client(ClientId(txn)),
            client: ClientId(txn),
            fragment: frag,
            multi_partition: true,
            last_fragment: last,
            round,
            can_abort: false,
        }
    }

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(n), 0)
    }

    fn setup() -> (
        LockingScheduler<TestEngine>,
        TestEngine,
        Outbox<Vec<(u64, i64)>>,
    ) {
        (
            LockingScheduler::new(PartitionId(0), CostModel::default(), Nanos::from_millis(5)),
            TestEngine::with_data(&[(1, 100), (2, 200), (3, 300)]),
            Outbox::new(CostModel::default()),
        )
    }

    #[test]
    fn fast_path_without_locks() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(sp(1, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 101);
        assert_eq!(s.counters().fast_path, 1);
        assert_eq!(s.lock_stats().acquires, 0, "no locks on fast path");
        assert!(s.is_idle());
    }

    #[test]
    fn sp_acquires_locks_while_mp_active() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.active_txns(), 1);
        // Non-conflicting SP runs concurrently (different key).
        s.on_fragment(sp(2, TestFragment::add(2, 1)), &mut e, NOW, &mut out);
        assert_eq!(e.get(2), 201);
        assert!(s.lock_stats().acquires > 0, "locks used while MP active");
        assert_eq!(s.counters().fast_path, 0);
        // Conflicting SP waits.
        s.on_fragment(sp(3, TestFragment::add(1, 50)), &mut e, NOW, &mut out);
        assert_eq!(e.get(1), 101, "conflicting SP must wait");
        out.take();

        // Commit the MP txn: the waiter runs.
        s.on_decision(
            Decision {
                txn: txid(1),
                commit: true,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(e.get(1), 151);
        let (msgs, _) = out.take();
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToClient {
                result: TxnResult::Committed(_),
                ..
            }
        )));
        assert!(s.is_idle());
    }

    #[test]
    fn mp_abort_rolls_back_and_wakes() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 7), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(2, TestFragment::add(1, 1)), &mut e, NOW, &mut out);
        s.on_decision(
            Decision {
                txn: txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        // MP's +7 undone; SP's +1 applied afterwards.
        assert_eq!(e.get(1), 101);
        assert_eq!(s.counters().aborted, 1);
        assert!(s.is_idle());
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn local_deadlock_kills_single_partition_victim() {
        let (mut s, mut e, mut out) = setup();
        // MP t1 locks key1 (round 0, not last: stays Idle holding lock).
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // MP t2 locks key2.
        s.on_fragment(
            mp(2, TestFragment::add(2, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // SP t3 wants key2 then... SP fragments acquire all locks at once:
        // t3 wants both key1 and key2 -> waits on key1 (t1 holds).
        s.on_fragment(
            sp(
                3,
                TestFragment {
                    ops: vec![
                        crate::testkit::TestOp::Add(1, 10),
                        crate::testkit::TestOp::Add(2, 10),
                    ],
                    fail: false,
                },
            ),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.counters().local_deadlocks, 0);
        // t1 round 1 wants key2 (held by t2): waits, no cycle yet.
        s.on_fragment(
            mp(1, TestFragment::add(2, 1), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.counters().local_deadlocks, 0);
        // t2 round 1 wants key1 (held by t1): cycle t1->t2->t1 (t3 is an
        // innocent bystander waiting on key1).
        out.take();
        s.on_fragment(
            mp(2, TestFragment::add(1, 1), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.counters().local_deadlocks, 1);
        // Victim must be an MP txn (no SP txn is in the cycle; t3 waits but
        // does not block anyone).
        let (msgs, _) = out.take();
        let aborted: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                PartitionOut::ToCoordinator { response, .. }
                    if matches!(
                        response.vote,
                        Some(Vote::Abort(AbortReason::DeadlockVictim))
                    ) =>
                {
                    Some(response.txn)
                }
                _ => None,
            })
            .collect();
        assert_eq!(aborted.len(), 1);
        assert!(aborted[0] == txid(1) || aborted[0] == txid(2));
    }

    #[test]
    fn deadlock_prefers_sp_victim_when_in_cycle() {
        let (mut s, mut e, mut out) = setup();
        // MP t1 holds key2 (idle, multi-round).
        s.on_fragment(
            mp(1, TestFragment::add(2, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // SP t2 wants key1 AND key2 (canonical order): gets key1, waits on
        // key2.
        s.on_fragment(
            sp(
                2,
                TestFragment {
                    ops: vec![
                        crate::testkit::TestOp::Add(2, 10),
                        crate::testkit::TestOp::Add(1, 10),
                    ],
                    fail: false,
                },
            ),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        // MP t1 round 1 wants key1 (held by SP t2): cycle t1 -> t2 -> t1.
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), true, 1),
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.counters().local_deadlocks, 1);
        let (msgs, _) = out.take();
        // SP t2 aborted; MP t1 proceeded to execute round 1.
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToClient { result: TxnResult::Aborted(AbortReason::DeadlockVictim), txn, .. }
                if *txn == txid(2)
        )));
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToCoordinator { response, .. }
                if response.txn == txid(1) && response.vote == Some(Vote::Commit)
        )));
        assert_eq!(e.get(2), 201, "SP rollback leaves only MP's write");
        assert_eq!(e.get(1), 101);
    }

    #[test]
    fn lock_timeout_aborts_waiting_mp() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        // MP t2 waits on key1.
        s.on_fragment(
            mp(2, TestFragment::add(1, 5), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        // Before the timeout: nothing.
        s.on_tick(&mut e, Nanos::from_millis(1), &mut out);
        assert_eq!(s.counters().lock_timeouts, 0);
        // After the timeout: t2 aborted with LockTimeout.
        s.on_tick(&mut e, Nanos::from_millis(6), &mut out);
        assert_eq!(s.counters().lock_timeouts, 1);
        let (msgs, _) = out.take();
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToCoordinator { response, .. }
                if response.txn == txid(2)
                    && matches!(response.vote, Some(Vote::Abort(AbortReason::LockTimeout)))
        )));
        // t1 unaffected.
        assert_eq!(s.active_txns(), 1);
    }

    /// One sweep finds two expired waits, and aborting the first victim
    /// releases the lock the second was waiting for: the second runs and
    /// votes commit inside the sweep. It is the coordinator's to decide
    /// now — aborting it too (silently, as the stale scan once did) would
    /// roll back a transaction the coordinator goes on to commit.
    #[test]
    fn timeout_sweep_spares_a_waiter_its_first_victim_resumed() {
        let (mut s, mut e, mut out) = setup();
        // Locks are taken in canonical order: `low` before `high`.
        let lock = |e: &TestEngine, k| e.lock_set(&TestFragment::add(k, 0))[0].0;
        let (low, high) = if lock(&e, 1) < lock(&e, 2) {
            (1, 2)
        } else {
            (2, 1)
        };
        // t1 holds `high` between rounds; t2 takes `low` and waits for
        // `high`; t3 waits for `low`.
        s.on_fragment(
            mp(1, TestFragment::add(high, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        let both = TestFragment {
            ops: vec![TestOp::Add(low, 1), TestOp::Add(high, 1)],
            fail: false,
        };
        s.on_fragment(mp(2, both, true, 0), &mut e, NOW, &mut out);
        s.on_fragment(
            mp(3, TestFragment::add(low, 5), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        out.take();
        let before = e.get(low);
        s.on_tick(&mut e, Nanos::from_millis(6), &mut out);
        assert_eq!(s.counters().lock_timeouts, 1, "only t2 times out");
        let (msgs, _) = out.take();
        assert!(msgs.iter().any(|m| matches!(
            m,
            PartitionOut::ToCoordinator { response, .. }
                if response.txn == txid(3) && response.vote == Some(Vote::Commit)
        )));
        let commit = Decision {
            txn: txid(3),
            commit: true,
        };
        s.on_decision(commit, &mut e, Nanos::from_millis(7), &mut out);
        assert_eq!(
            e.get(low),
            before + 5,
            "t3's prepared write survives to its commit"
        );
        assert_eq!(s.counters().stray_decisions, 0);
    }

    /// A commit for a transaction this scheduler never saw died with a
    /// crashed predecessor: it is counted (the driver must not acknowledge
    /// it — the coordinator is about to re-deliver it). An abort for one is
    /// the ordinary race with a local deadlock or timeout abort.
    #[test]
    fn a_commit_for_an_unknown_transaction_is_a_stray() {
        let (mut s, mut e, mut out) = setup();
        let decide = |commit| Decision {
            txn: txid(9),
            commit,
        };
        s.on_decision(decide(false), &mut e, NOW, &mut out);
        assert_eq!(s.counters().stray_decisions, 0);
        s.on_decision(decide(true), &mut e, NOW, &mut out);
        assert_eq!(s.counters().stray_decisions, 1);
    }

    #[test]
    fn sp_waiters_do_not_time_out() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(2, TestFragment::add(1, 5)), &mut e, NOW, &mut out);
        s.on_tick(&mut e, Nanos::from_millis(60), &mut out);
        assert_eq!(s.counters().lock_timeouts, 0);
        assert_eq!(s.active_txns(), 2);
    }

    #[test]
    fn decision_for_locally_aborted_txn_is_ignored() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            mp(2, TestFragment::add(1, 5), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_tick(&mut e, Nanos::from_millis(10), &mut out); // t2 timed out
        out.take();
        // The client-coordinator's abort decision arrives afterwards.
        s.on_decision(
            Decision {
                txn: txid(2),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert_eq!(s.active_txns(), 1);
        assert_eq!(s.counters().aborted, 1, "not double-counted");
    }

    /// A transaction this partition aborted and voted against still has
    /// its coordinator's decision in flight: the partition is not idle (an
    /// adaptive swap waits for idle) until that decision arrives.
    #[test]
    fn a_partition_that_voted_abort_is_busy_until_the_decision() {
        let (mut s, mut e, mut out) = setup();
        s.on_fragment(
            mp(1, TestFragment::add(1, 1), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(
            mp(2, TestFragment::add(1, 5), true, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_tick(&mut e, Nanos::from_millis(10), &mut out); // t2 timed out
        let abort = |n| Decision {
            txn: txid(n),
            commit: false,
        };
        s.on_decision(abort(1), &mut e, NOW, &mut out);
        assert_eq!(s.active_txns(), 0);
        assert!(!s.is_idle(), "t2's abort decision is still to come");
        s.on_decision(abort(2), &mut e, NOW, &mut out);
        assert!(s.is_idle());
        assert_eq!(s.counters().stray_decisions, 0);
    }

    #[test]
    fn readers_share_locks_under_active_mp() {
        let (mut s, mut e, mut out) = setup();
        // MP holds a write lock on key 3... no: use read locks on key 1 for
        // MP and two SP readers; all should proceed concurrently.
        s.on_fragment(
            mp(1, TestFragment::read(&[1]), false, 0),
            &mut e,
            NOW,
            &mut out,
        );
        s.on_fragment(sp(2, TestFragment::read(&[1])), &mut e, NOW, &mut out);
        s.on_fragment(sp(3, TestFragment::read(&[1])), &mut e, NOW, &mut out);
        let (msgs, _) = out.take();
        let client_replies = msgs
            .iter()
            .filter(|m| {
                matches!(
                    m,
                    PartitionOut::ToClient {
                        result: TxnResult::Committed(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(client_replies, 2, "shared locks allow concurrent readers");
    }

    #[test]
    fn mp_user_abort_votes_abort_and_releases() {
        let (mut s, mut e, mut out) = setup();
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
        // Locks are held until the decision arrives.
        assert_eq!(s.active_txns(), 1);
        s.on_decision(
            Decision {
                txn: txid(1),
                commit: false,
            },
            &mut e,
            NOW,
            &mut out,
        );
        assert!(s.is_idle());
    }
}
