//! The scheduler a partition runs.
//!
//! [`Scheduler`] is the event interface of one concurrency control scheme.
//! Two types implement it: [`SpeculativeScheduler`] (blocking, speculation
//! and OCC) and [`LockingScheduler`]. [`AnySched`] is either of them, and
//! [`AnySched::build`] is the one place a scheme becomes a scheduler.
//!
//! A partition runs one [`PartitionScheduler`]: the scheme it executes
//! now, and — when adaptive selection is on — the [`Controller`] that
//! measures the workload and swaps that scheme live (§5.7). With the
//! scheme pinned the controller is absent and every event goes straight
//! to the scheme.

use crate::adaptive::Controller;
use crate::engine::ExecutionEngine;
use crate::locking_sched::LockingScheduler;
use crate::outbox::Outbox;
use crate::speculative::{ConflictPolicy, SpeculativeScheduler};
use hcc_common::stats::{AdaptiveStats, SchedulerCounters, SwitchRecord};
use hcc_common::{Decision, FragmentTask, Nanos, PartitionId, Scheme, SchemeSwitch, SystemConfig};

/// A concurrency control scheme for one partition, driven by events.
///
/// All methods receive `now` (virtual or wall time, in nanoseconds) for
/// timeout bookkeeping, and an [`Outbox`] into which they emit messages and
/// CPU charges. Schedulers never block: a fragment that cannot run yet is
/// queued internally.
pub trait Scheduler<E: ExecutionEngine> {
    /// A transaction fragment arrived (from a client or a coordinator).
    fn on_fragment(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    );

    /// A two-phase-commit decision arrived from the coordinator. Returns
    /// `true` if it was a *stray*: a decision for a transaction this
    /// partition does not know (counted in
    /// [`SchedulerCounters::stray_decisions`]), which only a failover
    /// produces. A stray commit must not be acknowledged.
    fn on_decision(
        &mut self,
        decision: Decision,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) -> bool;

    /// Periodic maintenance (the locking scheme checks lock-wait timeouts
    /// here). The driver decides when ticks happen.
    fn on_tick(&mut self, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>);

    /// Aggregated counters (merged across partitions by the driver).
    fn counters(&self) -> SchedulerCounters;

    /// True when no transaction is active, queued, or awaiting a decision.
    fn is_idle(&self) -> bool;
}

/// The two scheduler types as one sum type, so a partition can swap
/// between schemes without boxing (and stays `Send` whenever they are).
pub enum AnySched<E: ExecutionEngine> {
    /// Blocking, speculation or OCC: one queue, parameterised.
    Speculative(SpeculativeScheduler<E>),
    Locking(LockingScheduler<E>),
}

impl<E: ExecutionEngine> AnySched<E> {
    /// Build the scheduler for `scheme` on partition `me`: the one place a
    /// scheme becomes a scheduler. Blocking is speculation at depth 0
    /// (§4.1 is §4.2 with §5.3's cap at zero); OCC is speculation with
    /// precise squashes (§5.7).
    pub fn build(config: &SystemConfig, me: PartitionId, scheme: Scheme) -> Self {
        let (max_depth, policy) = match scheme {
            Scheme::Locking => {
                let (costs, timeout) = (config.costs, config.lock_timeout);
                return AnySched::Locking(LockingScheduler::new(me, costs, timeout));
            }
            Scheme::Blocking => (0, ConflictPolicy::AssumeAll),
            Scheme::Speculative => (config.max_speculation_depth, ConflictPolicy::AssumeAll),
            Scheme::Occ => (config.max_speculation_depth, ConflictPolicy::Precise),
        };
        AnySched::Speculative(SpeculativeScheduler::new(config, me, max_depth, policy))
    }
}

/// Evaluate `$body` with `$inner` bound to the scheduler an [`AnySched`]
/// holds.
macro_rules! delegate {
    ($sched:expr, $inner:pat => $body:expr) => {
        match $sched {
            AnySched::Speculative($inner) => $body,
            AnySched::Locking($inner) => $body,
        }
    };
}
pub(crate) use delegate;

/// The scheduler of one partition: the scheme it runs and, when adaptive
/// selection is on, the controller that may swap that scheme.
pub struct PartitionScheduler<E: ExecutionEngine> {
    inner: AnySched<E>,
    /// `None` when the scheme is pinned (`SystemConfig::adaptive` off).
    pub(crate) adaptive: Option<Controller<E>>,
}

impl<E: ExecutionEngine> PartitionScheduler<E> {
    /// Build partition `me`'s scheduler. A promoted backup passes the last
    /// [`SchemeSwitch`] it applied as `resume` and its promotion time as
    /// `now`; both matter only under adaptive selection.
    pub fn new(
        config: &SystemConfig,
        me: PartitionId,
        resume: Option<SchemeSwitch>,
        now: Nanos,
    ) -> Self {
        let adaptive = Controller::new(config, me, resume, now);
        let scheme = adaptive.as_ref().map_or(config.scheme, |c| c.scheme);
        PartitionScheduler {
            inner: AnySched::build(config, me, scheme),
            adaptive,
        }
    }

    /// Adaptive-controller statistics, closed out at `now` so the final
    /// residency segment is included. `None` when the scheme is pinned.
    pub fn adaptive_stats(&self, now: Nanos) -> Option<AdaptiveStats> {
        self.adaptive.as_ref().map(|c| c.stats(now))
    }

    /// Drain the scheme switches made since the last drain. The primary
    /// stamps them into its next commit record, so replicas (and a promoted
    /// backup) follow it through the same transitions.
    pub fn take_switch_notes(&mut self) -> Vec<SwitchRecord> {
        let notes = self.adaptive.as_mut().map(|c| &mut c.notes);
        notes.map_or_else(Vec::new, std::mem::take)
    }

    /// Runs after every event: lets the controller complete a pending swap
    /// or close a window.
    fn after_event(&mut self, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>) {
        if let Some(c) = &mut self.adaptive {
            c.after_event(&mut self.inner, engine, now, out);
        }
    }
}

impl<E: ExecutionEngine> Scheduler<E> for PartitionScheduler<E> {
    fn on_fragment(
        &mut self,
        task: FragmentTask<E::Fragment>,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) {
        match &mut self.adaptive {
            Some(c) if c.holds(&task) => c.hold(task),
            _ => delegate!(&mut self.inner, s => s.on_fragment(task, engine, now, out)),
        }
        self.after_event(engine, now, out);
    }

    fn on_decision(
        &mut self,
        decision: Decision,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    ) -> bool {
        let stray = delegate!(&mut self.inner, s => s.on_decision(decision, engine, now, out));
        self.after_event(engine, now, out);
        stray
    }

    fn on_tick(&mut self, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>) {
        delegate!(&mut self.inner, s => s.on_tick(engine, now, out));
        self.after_event(engine, now, out);
    }

    fn counters(&self) -> SchedulerCounters {
        match &self.adaptive {
            Some(c) => c.cumulative(&self.inner),
            None => delegate!(&self.inner, s => s.counters()),
        }
    }

    fn is_idle(&self) -> bool {
        let held = self.adaptive.as_ref().map_or(0, |c| c.held.len());
        held == 0 && delegate!(&self.inner, s => s.is_idle())
    }
}

/// Construct partition `me`'s scheduler as a trait object, for drivers
/// that step schedulers directly (the serial-equivalence oracle, the
/// benchmark's pump).
pub fn make_scheduler<E: ExecutionEngine + 'static>(
    config: &SystemConfig,
    me: PartitionId,
) -> Box<dyn Scheduler<E>> {
    Box::new(PartitionScheduler::new(config, me, None, Nanos::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{TestEngine, TestFragment};
    use hcc_common::{ClientId, CoordinatorId, CoordinatorRef, CostModel, TxnId};

    /// With the scheme pinned a partition has no controller: `resume` is
    /// ignored, there are no statistics or switch notes, and
    /// `on_decision` tells a known decision from a stray.
    #[test]
    fn a_pinned_partition_runs_its_scheme_without_a_controller() {
        for scheme in [Scheme::Locking, Scheme::Speculative] {
            let cfg = SystemConfig::new(scheme);
            let resume = Some(SchemeSwitch {
                epoch: 3,
                scheme: Scheme::Blocking,
            });
            let mut s =
                PartitionScheduler::<TestEngine>::new(&cfg, PartitionId(0), resume, Nanos(0));
            assert!(s.adaptive.is_none());
            let locking = matches!(s.inner, AnySched::Locking(_));
            assert_eq!(locking, scheme == Scheme::Locking, "{scheme:?}");
            let mut e = TestEngine::with_data(&[(1, 100)]);
            let mut out = Outbox::new(CostModel::default());
            let txn = TxnId::new(ClientId(9), 1);
            let task = FragmentTask {
                txn,
                coordinator: CoordinatorRef::Central(CoordinatorId(0)),
                client: ClientId(9),
                fragment: TestFragment::add(1, 1),
                multi_partition: true,
                last_fragment: true,
                round: 0,
                can_abort: false,
            };
            s.on_fragment(task, &mut e, Nanos(0), &mut out);
            assert!(!s.is_idle(), "{scheme:?}");
            let commit = Decision { txn, commit: true };
            assert!(
                !s.on_decision(commit, &mut e, Nanos(1), &mut out),
                "{scheme:?}"
            );
            assert!(
                s.on_decision(commit, &mut e, Nanos(2), &mut out),
                "{scheme:?}: stray"
            );
            assert!(s.is_idle(), "{scheme:?}");
            let c = s.counters();
            assert_eq!((c.committed, c.stray_decisions), (1, 1), "{scheme:?}");
            assert!(s.adaptive_stats(Nanos(3)).is_none());
            assert!(s.take_switch_notes().is_empty());
        }
    }
}
