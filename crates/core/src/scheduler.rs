//! The scheduler interface every concurrency control scheme implements.

use crate::adaptive::{AdaptiveScheduler, AnySched};
use crate::engine::ExecutionEngine;
use crate::outbox::Outbox;
use hcc_common::stats::{AdaptiveStats, SchedulerCounters, SwitchRecord};
use hcc_common::{Decision, FragmentTask, Nanos, SchemeSwitch, SystemConfig};

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

    /// A two-phase-commit decision arrived from the coordinator.
    fn on_decision(
        &mut self,
        decision: Decision,
        engine: &mut E,
        now: Nanos,
        out: &mut Outbox<E::Output>,
    );

    /// Periodic maintenance (the locking scheme checks lock-wait timeouts
    /// here). Returns the delay until the scheduler next wants a tick, or
    /// `None` if it has no timers pending.
    fn on_tick(&mut self, engine: &mut E, now: Nanos, out: &mut Outbox<E::Output>)
        -> Option<Nanos>;

    /// Aggregated counters (merged across partitions by the driver).
    fn counters(&self) -> SchedulerCounters;

    /// True when no transaction is active, queued, or awaiting a decision.
    fn is_idle(&self) -> bool;

    /// Adaptive-controller statistics (ISSUE 10), closed out at `now` so
    /// the final residency segment is included. `None` for every concrete
    /// scheme — only the [`crate::adaptive::AdaptiveScheduler`] wrapper
    /// reports.
    fn adaptive_stats(&self, now: Nanos) -> Option<AdaptiveStats> {
        let _ = now;
        None
    }

    /// Drain the scheme switches performed since the last drain. Drivers
    /// call this after every event batch and stamp the records into the
    /// next commit record, so replicas (and a promoted backup) follow the
    /// primary through the same transitions. Empty for every concrete
    /// scheme.
    fn take_switch_notes(&mut self) -> Vec<SwitchRecord> {
        Vec::new()
    }
}

/// Box the scheduler [`AnySched::build`] makes for `config.scheme` — its
/// concrete type, so the actors dispatch straight to it — or the adaptive
/// controller around it. Both `make_scheduler` variants expand this,
/// differing only in the trait object's `Send` bound (a type position a
/// generic function can't abstract over).
macro_rules! build_scheduler {
    ($config:expr, $me:expr, $resume:expr, $now:expr) => {
        if $config.adaptive.is_on() {
            // ISSUE 10: `scheme` is only the starting point — wrap it in
            // the adaptive controller, which re-plans live from observed
            // statistics (and resumes its predecessor's scheme/epoch
            // after a promotion).
            Box::new(AdaptiveScheduler::new($config, $me, $resume, $now))
        } else {
            match AnySched::build($config, $me, $config.scheme) {
                AnySched::Speculative(s) => Box::new(s),
                AnySched::Locking(s) => Box::new(s),
            }
        }
    };
}

/// Construct the scheduler selected by `config.scheme` for partition `me`.
pub fn make_scheduler<E: ExecutionEngine + 'static>(
    config: &SystemConfig,
    me: hcc_common::PartitionId,
) -> Box<dyn Scheduler<E>> {
    build_scheduler!(config, me, None, Nanos::ZERO)
}

/// As [`make_scheduler`], but a `Send` trait object, for drivers that move
/// partition state machines across threads (the live runtime's backends).
/// `resume` is the last [`SchemeSwitch`] a replica applied — what a
/// promoted backup passes so it continues in the scheme (and at the
/// transition epoch) its failed primary had reached, and `now` the time
/// it starts to serve, from which the adaptive controller counts scheme
/// residency. Both are ignored unless adaptive selection is on (the
/// scheme is static then).
pub fn make_scheduler_send<E>(
    config: &SystemConfig,
    me: hcc_common::PartitionId,
    resume: Option<SchemeSwitch>,
    now: Nanos,
) -> Box<dyn Scheduler<E> + Send>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    build_scheduler!(config, me, resume, now)
}
