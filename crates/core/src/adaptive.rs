//! Live per-partition scheme switching driven by the §5.7/§6 model — the
//! paper's closed loop.
//!
//! §5.7 observes that the best concurrency control scheme depends on the
//! workload ("a database system could measure these statistics and use
//! this model to select the best scheme") and §6 gives the model. This
//! module is that sentence as code. The [`Controller`] is part of the
//! partition's scheduler, not a wrapper around it: a
//! [`PartitionScheduler`](crate::scheduler::PartitionScheduler) holds one
//! when adaptive selection is on, next to the scheme it runs. The
//! controller measures the statistics the model needs over sliding
//! windows of transaction *outcomes*, asks [`hcc_model::recommend`] for
//! the winner, and — with hysteresis, so a noisy window cannot thrash —
//! swaps the partition's scheme live:
//!
//! 1. **Decide.** A window closes every `window` outcomes
//!    (commits + aborts, a deterministic event count — never wall time,
//!    which would differ between the simulator and the live runtime). The
//!    window's [`SchedulerCounters`] delta yields the observed
//!    multi-partition fraction, abort rate, conflict rate, multi-round
//!    share and mean fragment cost; the model's verdict must beat the
//!    incumbent by `margin` for [`AdaptiveConfig::CONSECUTIVE_WINDOWS`]
//!    windows in a row before a switch is scheduled.
//! 2. **Quiesce.** New transactions (round-0 fragments) are held by the
//!    controller; in-flight rounds and 2PC decisions pass through, so every
//!    speculation chain resolves and every prepared transaction gets its
//!    decision. The held work never deadlocks the drain: nothing the
//!    running scheme is waiting for depends on admitting a new
//!    transaction.
//! 3. **Swap.** The moment the running scheme reports
//!    [`Scheduler::is_idle`], its counters are folded into the controller's
//!    running total, the new scheme's scheduler is built, the transition
//!    epoch is bumped, a [`SwitchRecord`] is queued for the driver (which
//!    ships it to replicas inside the commit log, so failover lands in
//!    the same scheme at the same epoch), and the held fragments replay
//!    in arrival order.
//!
//! Everything here is event-driven and deterministic: the same event
//! sequence produces the same windows, the same verdicts and the same
//! switch points in the simulator and in both runtime backends.

use crate::engine::ExecutionEngine;
use crate::outbox::Outbox;
use crate::scheduler::{delegate, AnySched, Scheduler};
use hcc_common::stats::{AdaptiveStats, SchedulerCounters, SwitchRecord};
use hcc_common::{
    AdaptiveConfig, FragmentTask, Nanos, PartitionId, Scheme, SchemeSwitch, SystemConfig,
};
use hcc_model::{recommend, ModelParams, WorkloadProfile};
use std::collections::VecDeque;

/// The adaptive controller of one partition. See the module docs for the
/// decide → quiesce → swap protocol.
pub struct Controller<E: ExecutionEngine> {
    me: PartitionId,
    config: SystemConfig,
    /// The scheme running now (or being switched away from).
    pub(crate) scheme: Scheme,
    /// Dense transition counter: 0 = the initial scheme, bumped at every
    /// swap. Replicas assert failover parity on (epoch, scheme).
    epoch: u32,
    margin: f64,
    window: u64,
    /// Counters of every retired scheme's scheduler, so the partition's
    /// counters are monotonic across swaps (a fresh one starts from zero).
    retired: SchedulerCounters,
    /// Cumulative snapshot at the open of the current window.
    win_start: SchedulerCounters,
    /// Last conflict-rate estimate from a scheme that could observe one
    /// (blocking observes nothing about conflicts, so it reuses this).
    last_conflict: f64,
    /// Scheme the model proposed last window, and for how many
    /// consecutive windows — the hysteresis state.
    streak: Option<(Scheme, u32)>,
    /// Set while quiescing: the scheme to swap to once the running one
    /// drains, and when the quiesce began.
    target: Option<(Scheme, Nanos)>,
    /// Round-0 fragments held during the quiesce, replayed after the swap.
    pub(crate) held: VecDeque<FragmentTask<E::Fragment>>,
    /// Switches not yet drained by the driver (stamped into the commit
    /// log so replicas follow).
    pub(crate) notes: Vec<SwitchRecord>,
    stats: AdaptiveStats,
    /// Start of the current scheme's residency segment.
    residency_mark: Nanos,
    params: ModelParams,
}

impl<E: ExecutionEngine> Controller<E> {
    /// Build the controller, or `None` when adaptive selection is off.
    /// A backup promoted mid-run passes the last [`SchemeSwitch`] it
    /// applied as `resume`, so it starts in the scheme and at the epoch
    /// its predecessor had reached, and the time of its promotion as `now`,
    /// from which scheme residency counts.
    pub(crate) fn new(
        config: &SystemConfig,
        me: PartitionId,
        resume: Option<SchemeSwitch>,
        now: Nanos,
    ) -> Option<Self> {
        let AdaptiveConfig::Model { margin, window } = config.adaptive else {
            return None;
        };
        let (scheme, epoch) = resume.map_or((config.scheme, 0), |sw| (sw.scheme, sw.epoch));
        Some(Controller {
            me,
            config: config.clone(),
            scheme,
            epoch,
            margin,
            window: u64::from(window.max(1)),
            retired: SchedulerCounters::default(),
            win_start: SchedulerCounters::default(),
            last_conflict: 0.0,
            streak: None,
            target: None,
            held: VecDeque::new(),
            notes: Vec::new(),
            stats: AdaptiveStats::default(),
            residency_mark: now,
            // Under adaptive every multi-partition transaction passes the
            // central coordinator, so the model's coordinator cap applies.
            params: ModelParams::of(&config.costs, &config.network),
        })
    }

    /// The partition's counters: every retired scheme's plus `inner`'s.
    pub(crate) fn cumulative(&self, inner: &AnySched<E>) -> SchedulerCounters {
        let mut c = self.retired;
        c.merge(&delegate!(inner, s => s.counters()));
        c
    }

    /// Quiescing: a new transaction (a round-0 fragment) is held. Later
    /// rounds pass — an in-flight transaction's next round is something
    /// the drain *waits for*, so holding it would deadlock the swap.
    pub(crate) fn holds(&self, task: &FragmentTask<E::Fragment>) -> bool {
        self.target.is_some() && task.round == 0
    }

    pub(crate) fn hold(&mut self, task: FragmentTask<E::Fragment>) {
        self.stats.held_fragments += 1;
        self.held.push_back(task);
    }

    /// The statistics, with the open residency segment closed at `now`
    /// so the report covers the whole run.
    pub(crate) fn stats(&self, now: Nanos) -> AdaptiveStats {
        let mut stats = self.stats.clone();
        stats.residency_ns[self.scheme as usize] += now.0.saturating_sub(self.residency_mark.0);
        stats
    }

    /// The model's §6 parameters, rescaled so `t_sp` matches the mean
    /// fragment cost observed this window (the network stall `t_mpN` and
    /// the coordinator's CPU are not partition CPU and stay fixed).
    fn scaled_params(&self, d: &SchedulerCounters) -> ModelParams {
        let base = self.params;
        if d.fragments_executed == 0 || d.execution_ns == 0 {
            return base;
        }
        let mean_frag = d.execution_ns as f64 / d.fragments_executed as f64;
        let scale = mean_frag / base.t_sp.0 as f64;
        if !scale.is_finite() || scale <= 0.0 {
            return base;
        }
        let t_mp_c = Nanos((base.t_mp_c.0 as f64 * scale) as u64);
        ModelParams {
            t_sp: Nanos(mean_frag as u64),
            t_sp_s: Nanos((base.t_sp_s.0 as f64 / base.t_sp.0 as f64 * mean_frag) as u64),
            t_mp: base.t_mp_n() + t_mp_c,
            t_mp_c,
            ..base
        }
    }

    /// Translate a window's counter delta into the statistics the model
    /// consumes — exactly what §5.7 says a deployment "could measure".
    fn profile(&mut self, d: &SchedulerCounters) -> WorkloadProfile {
        let outcomes = d.outcomes().max(1) as f64;
        let mp_fraction = d.committed_mp as f64 / d.committed.max(1) as f64;
        let abort_rate = d.aborted as f64 / outcomes;
        // Conflict proxy: lock-wait ratio under locking; squash ratio
        // under the speculating schemes (exact under OCC's precise
        // validation, pessimistic under §4.2's assume-all rule); blocking
        // observes nothing and reuses the last estimate.
        let conflict_rate = match self.scheme {
            Scheme::Locking => {
                let total = d.locks_waited + d.locks_granted_immediately;
                if total > 0 {
                    d.locks_waited as f64 / total as f64
                } else {
                    self.last_conflict
                }
            }
            Scheme::Speculative | Scheme::Occ => {
                (d.squashed_executions as f64 / (d.speculative_executions + 1) as f64).min(1.0)
            }
            Scheme::Blocking => self.last_conflict,
        };
        self.last_conflict = conflict_rate;
        // Multi-round share: fragments beyond one per transaction are
        // extra rounds, attributable to multi-partition transactions
        // (squashed re-executions excluded — they are wasted work, not
        // rounds).
        let net_frags = d.fragments_executed.saturating_sub(d.squashed_executions);
        let extra = net_frags.saturating_sub(d.outcomes());
        let multi_round_fraction = if d.committed_mp == 0 {
            0.0
        } else {
            (extra as f64 / d.committed_mp as f64).clamp(0.0, 1.0)
        };
        WorkloadProfile {
            mp_fraction,
            abort_rate,
            conflict_rate,
            multi_round_fraction,
        }
    }

    /// Close the window if enough outcomes accumulated, score it, and
    /// arm a quiesce when the hysteresis threshold is crossed.
    fn maybe_plan(&mut self, inner: &AnySched<E>, now: Nanos) {
        let cum = self.cumulative(inner);
        let d = cum.delta_since(&self.win_start);
        if d.outcomes() < self.window {
            return;
        }
        self.win_start = cum;
        self.stats.windows_evaluated += 1;
        let params = self.scaled_params(&d);
        let profile = self.profile(&d);
        let rec = recommend(&params, &profile);
        let winner = rec.scheme;
        if winner == self.scheme
            || rec.score_of(winner) < (1.0 + self.margin) * rec.score_of(self.scheme)
        {
            self.streak = None;
            return;
        }
        let streak = match self.streak {
            Some((s, n)) if s == winner => n + 1,
            _ => 1,
        };
        self.streak = Some((winner, streak));
        if streak >= AdaptiveConfig::CONSECUTIVE_WINDOWS {
            self.streak = None;
            self.target = Some((winner, now));
        }
    }

    fn swap(
        &mut self,
        inner: &mut AnySched<E>,
        (to, quiesce_from): (Scheme, Nanos),
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        self.retired.merge(&delegate!(&*inner, s => s.counters()));
        self.stats.residency_ns[self.scheme as usize] +=
            now.0.saturating_sub(self.residency_mark.0);
        self.residency_mark = now;
        self.stats
            .quiesce_stall
            .record(Nanos(now.0.saturating_sub(quiesce_from.0)));
        self.epoch += 1;
        self.scheme = to;
        *inner = AnySched::build(&self.config, self.me, to);
        self.target = None;
        self.stats.switches += 1;
        let record = SwitchRecord {
            partition: self.me.0,
            epoch: self.epoch,
            scheme: to,
            at_ns: now.0,
        };
        self.stats.switch_log.push(record);
        self.notes.push(record);
        // The fresh scheduler counts from zero; open a fresh window so
        // rates reflect the new scheme only.
        self.win_start = self.cumulative(inner);
        // Replay the held transactions in arrival order.
        while let Some(task) = self.held.pop_front() {
            delegate!(&mut *inner, s => s.on_fragment(task, engine, now, out));
        }
    }

    /// Runs after every event `inner` handled: completes a pending swap
    /// the moment the drain finishes, otherwise evaluates the window. Both
    /// are functions of the event sequence alone — deterministic.
    pub(crate) fn after_event(
        &mut self,
        inner: &mut AnySched<E>,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        match self.target {
            Some(target) => {
                if delegate!(&*inner, s => s.is_idle()) {
                    self.swap(inner, target, engine, now, out);
                }
            }
            None => self.maybe_plan(inner, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PartitionScheduler;
    use crate::testkit::{TestEngine, TestFragment};
    use hcc_common::{ClientId, CoordinatorId, CoordinatorRef, CostModel, Decision, TxnId};

    fn sp_task(txn: u32, frag: TestFragment) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(1), txn),
            coordinator: CoordinatorRef::Client(ClientId(1)),
            client: ClientId(1),
            fragment: frag,
            multi_partition: false,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn mp_task(txn: u32, frag: TestFragment) -> FragmentTask<TestFragment> {
        FragmentTask {
            txn: TxnId::new(ClientId(9), txn),
            coordinator: CoordinatorRef::Central(CoordinatorId(0)),
            client: ClientId(9),
            fragment: frag,
            multi_partition: true,
            last_fragment: true,
            round: 0,
            can_abort: false,
        }
    }

    fn decision(txn: u32, commit: bool) -> Decision {
        Decision {
            txn: TxnId::new(ClientId(9), txn),
            commit,
        }
    }

    fn adaptive_config(initial: Scheme, margin: f64, window: u32) -> SystemConfig {
        SystemConfig::new(initial).with_adaptive(AdaptiveConfig::Model { margin, window })
    }

    fn setup(
        cfg: &SystemConfig,
    ) -> (
        PartitionScheduler<TestEngine>,
        TestEngine,
        Outbox<Vec<(u64, i64)>>,
    ) {
        (
            PartitionScheduler::new(cfg, PartitionId(0), None, Nanos::ZERO),
            TestEngine::with_data(&[(1, 100), (2, 200)]),
            Outbox::new(CostModel::default()),
        )
    }

    fn ctl(s: &PartitionScheduler<TestEngine>) -> &Controller<TestEngine> {
        s.adaptive.as_ref().expect("adaptive selection is on")
    }

    #[test]
    fn delegates_and_accumulates_counters() {
        let cfg = adaptive_config(Scheme::Blocking, 0.15, 256);
        let (mut s, mut e, mut out) = setup(&cfg);
        for i in 1..=5 {
            s.on_fragment(
                sp_task(i, TestFragment::add(1, 1)),
                &mut e,
                Nanos(0),
                &mut out,
            );
        }
        assert_eq!(s.counters().committed, 5);
        assert_eq!(s.counters().committed_mp, 0);
        assert_eq!(ctl(&s).scheme, Scheme::Blocking);
        assert_eq!(ctl(&s).epoch, 0);
        assert!(s.is_idle());
        assert_eq!(s.adaptive_stats(Nanos(100)).unwrap().switches, 0);
        assert!(s.take_switch_notes().is_empty());
    }

    #[test]
    fn uniform_single_partition_load_never_switches() {
        // At f = 0 no scheme beats blocking by the margin; the streak
        // must never arm.
        let cfg = adaptive_config(Scheme::Blocking, 0.15, 4);
        let (mut s, mut e, mut out) = setup(&cfg);
        for i in 1..=64 {
            s.on_fragment(
                sp_task(i, TestFragment::add(1, 1)),
                &mut e,
                Nanos(i as u64),
                &mut out,
            );
        }
        let stats = s.adaptive_stats(Nanos(1000)).unwrap();
        assert_eq!(stats.switches, 0);
        assert!(stats.windows_evaluated >= 16);
        assert_eq!(ctl(&s).scheme, Scheme::Blocking);
        // All residency accrues to the initial scheme.
        assert_eq!(stats.residency_ns[Scheme::Blocking as usize], 1000);
        assert_eq!(stats.residency_ns[Scheme::Speculative as usize], 0);
    }

    #[test]
    fn sustained_mp_load_switches_away_from_blocking() {
        // Pure multi-partition traffic: the §6 model scores blocking at
        // 2/(2·t_mp) — far below the concurrent schemes — so three
        // consecutive windows must arm a switch.
        let cfg = adaptive_config(Scheme::Blocking, 0.10, 2);
        let (mut s, mut e, mut out) = setup(&cfg);
        let mut now = 0u64;
        for i in 1..=20 {
            now += 1000;
            s.on_fragment(
                mp_task(i, TestFragment::add(1, 1)),
                &mut e,
                Nanos(now),
                &mut out,
            );
            now += 1000;
            s.on_decision(decision(i, true), &mut e, Nanos(now), &mut out);
        }
        let stats = s.adaptive_stats(Nanos(now)).unwrap();
        assert!(stats.switches >= 1, "expected a switch: {stats:?}");
        assert_ne!(ctl(&s).scheme, Scheme::Blocking);
        assert_eq!(ctl(&s).epoch as u64, stats.switches);
        let notes = s.take_switch_notes();
        assert_eq!(notes.len() as u64, stats.switches);
        assert_eq!(notes[0].epoch, 1);
        assert_eq!(notes[0].scheme, stats.switch_log[0].scheme);
        assert!(s.take_switch_notes().is_empty(), "notes drain once");
        // Counters survived the swap: every commit is still counted.
        assert_eq!(s.counters().committed, 20);
        assert_eq!(s.counters().committed_mp, 20);
        // Residency is split between the old and new schemes.
        let resident: Vec<usize> = (0..4).filter(|&i| stats.residency_ns[i] > 0).collect();
        assert!(resident.len() >= 2, "residency: {:?}", stats.residency_ns);
    }

    #[test]
    fn quiesce_holds_new_transactions_and_replays_after_swap() {
        let cfg = adaptive_config(Scheme::Speculative, 0.01, 2);
        let (mut s, mut e, mut out) = setup(&cfg);
        let mut now = 0u64;
        // Five committed MP transactions: windows close at outcomes 2
        // and 4 (streak 2 toward locking — pure-MP traffic where
        // client-free 2PC wins in the model).
        for i in 1..=5 {
            now += 1000;
            s.on_fragment(
                mp_task(i, TestFragment::add(1, 1)),
                &mut e,
                Nanos(now),
                &mut out,
            );
            now += 1000;
            s.on_decision(decision(i, true), &mut e, Nanos(now), &mut out);
        }
        assert_eq!(s.adaptive_stats(Nanos(now)).unwrap().switches, 0);
        // Transactions 6 and 7 in flight; aborting 6 is the 6th outcome:
        // the third window closes, the switch arms — but 7 is still
        // undecided, so the swap must wait.
        s.on_fragment(
            mp_task(6, TestFragment::add(1, 1)),
            &mut e,
            Nanos(now),
            &mut out,
        );
        s.on_fragment(
            mp_task(7, TestFragment::add(2, 1)),
            &mut e,
            Nanos(now),
            &mut out,
        );
        now += 1000;
        s.on_decision(decision(6, false), &mut e, Nanos(now), &mut out);
        assert_eq!(s.adaptive_stats(Nanos(now)).unwrap().switches, 0);
        assert_eq!(
            ctl(&s).scheme,
            Scheme::Speculative,
            "swap waits for the drain"
        );
        // A new transaction arriving mid-quiesce is held, not executed.
        out.take();
        s.on_fragment(
            sp_task(100, TestFragment::add(1, 50)),
            &mut e,
            Nanos(now),
            &mut out,
        );
        assert!(
            out.take().0.is_empty(),
            "held fragment must not produce output"
        );
        assert_eq!(s.adaptive_stats(Nanos(now)).unwrap().held_fragments, 1);
        // Deciding 7 drains the inner: swap happens, the held fragment
        // replays under the new scheme and commits.
        now += 1000;
        s.on_decision(decision(7, true), &mut e, Nanos(now), &mut out);
        let stats = s.adaptive_stats(Nanos(now)).unwrap();
        assert_eq!(stats.switches, 1);
        assert_ne!(ctl(&s).scheme, Scheme::Speculative);
        let (msgs, _) = out.take();
        assert!(
            msgs.iter().any(|m| matches!(
                m,
                crate::outbox::PartitionOut::ToClient { client, .. } if *client == ClientId(1)
            )),
            "held SP transaction must commit after the swap"
        );
        assert!(s.is_idle());
        assert_eq!(stats.quiesce_stall.count(), 1);
    }

    #[test]
    fn resume_carries_scheme_and_epoch_for_failover() {
        let cfg = adaptive_config(Scheme::Blocking, 0.15, 256);
        let s: PartitionScheduler<TestEngine> = PartitionScheduler::new(
            &cfg,
            PartitionId(1),
            Some(SchemeSwitch {
                epoch: 3,
                scheme: Scheme::Locking,
            }),
            Nanos::ZERO,
        );
        assert_eq!(ctl(&s).scheme, Scheme::Locking);
        assert_eq!(ctl(&s).epoch, 3);
    }
}
