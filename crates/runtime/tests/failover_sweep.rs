//! Failover sweep — the crash sweep's sibling. Virtual time makes "kill at
//! every point" cheap, so instead of one kill per scenario (what
//! `failover.rs` can afford on real threads) this walks the kill across
//! the whole run — by time, and by the production count trigger
//! (`FailAt::Commits`) — for every scheme, one and two coordinator
//! shards, sequencing off and on, at 30 % and 100 % multi-partition — and
//! the actors it kills are the production ones: `Promote`, the `Promoted`
//! routing flip, the `RoutingApplied` fence, in-doubt re-delivery,
//! `Rejoin` → `FetchState` → `Snapshot`.
//!
//! Two schedules per point: constant latency, and senders preempted
//! partway through a step's mail ([`Simulation::preempt_senders`]) — the
//! interleavings of a thread descheduled mid-route, which the stall the
//! `RoutingApplied` fence prevents (a shard that hears of a failover late
//! re-delivering commits the promoted primary already ran) needs. With the
//! promoted primary's fence bypassed, the preempted sweep finds it.

use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{BackendChoice, RuntimeConfig, Simulation};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use std::panic::{catch_unwind, AssertUnwindSafe};

const WARMUP: Nanos = Nanos(500_000);
const MEASURE: Nanos = Nanos(4_000_000);

/// Preemption seeds per point in the full sweep; the tier-1 leg runs one.
const SEEDS: u64 = 32;

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    scheme: Scheme,
    shards: u32,
    sequenced: bool,
    mp: f64,
    at: FailAt,
}

impl Point {
    fn system(&self) -> SystemConfig {
        SystemConfig::new(self.scheme)
            .with_partitions(2)
            .with_clients(12)
            .with_seed(0x5EE9)
            .with_replication(2)
            .with_coordinators(self.shards)
            .with_sequencing(self.sequenced)
    }
}

/// Every point, in sweep order. Kill times: every 100 µs from 0.3 ms to
/// 4.3 ms — before the window opens, all through it, and into the drain.
/// Kill counts: right after the primary ships its first commit record, and
/// its tenth. A sequenced point whose sequencing is inert (pinned locking
/// coordinates at the client, so the sequencer never sees it) would repeat
/// its unsequenced twin, and is left out.
fn points() -> Vec<Point> {
    let schemes = [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ];
    let mut points = Vec::new();
    for (scheme, shards, sequenced, mp) in schemes.into_iter().flat_map(|scheme| {
        let configs = [1, 2].into_iter().flat_map(|k| [(k, false), (k, true)]);
        configs.flat_map(move |(k, seq)| [(scheme, k, seq, 0.3), (scheme, k, seq, 1.0)])
    }) {
        let times = (3..=43).map(|i| FailAt::Time(Nanos(i * 100_000)));
        for at in times.chain([1, 10].map(FailAt::Commits)) {
            let point = Point {
                scheme,
                shards,
                sequenced,
                mp,
                at,
            };
            if !sequenced || point.system().sequencing_active() {
                points.push(point);
            }
        }
    }
    points
}

/// The points the preempted legs run. They leave out two unsequenced
/// shards at 100 % multi-partition: a shard cut off between a
/// transaction's two fragments lets the shards' chains cross at the
/// partitions, a distributed deadlock only the shards' stall expiry (20 ms,
/// past the run) breaks, and every retry crosses again — the retry storm
/// sequencing exists to remove. Nothing commits, so a count-triggered kill
/// never fires.
fn preempted_points() -> impl Iterator<Item = Point> {
    points()
        .into_iter()
        .filter(|p| p.sequenced || p.shards == 1 || p.mp < 1.0 || p.system().client_2pc())
}

/// One kill → promote → recover run, with senders preempted from `preempt`
/// if given; panics unless it drains (the driver's own checks: heap
/// empties, schedulers idle, no commit left in doubt, the recovery
/// finished) and converges.
fn kill_at(p: Point, preempt: Option<u64>) {
    let micro = MicroConfig {
        partitions: 2,
        clients: 12,
        mp_fraction: p.mp,
        abort_prob: 0.05,
        seed: 0x5EE9,
        ..Default::default()
    };
    let cfg = RuntimeConfig::new(p.system(), BackendChoice::Sim { shadow: true })
        .with_window(WARMUP, MEASURE)
        .with_failure(FailurePlan {
            partition: PartitionId(1),
            at: p.at,
            rejoin_delay: Nanos::from_micros(400),
        });
    let builder = MicroWorkload::new(micro);
    let mut sim = Simulation::new(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    if let Some(seed) = preempt {
        sim.preempt_senders(seed);
    }
    let (report, _) = sim.run();
    let (engines, backups) = (&report.engines, &report.backups);
    let repl = &report.replication;
    assert_eq!(repl.promotions, 1);
    assert_eq!(repl.recoveries, 1);
    assert_eq!(repl.replay_failures, 0);
    // (Not `report.committed`: at 100 % multi-partition an early kill sets
    // off a squash cascade down the whole speculation chain that can
    // outlast this short window. With preempted senders a chain's first
    // commit can come after a late kill, whose aborts the clients cannot
    // retry once the window has closed: nothing is owed then.)
    assert!(
        preempt.is_some() || report.sched.committed > 0,
        "nothing committed"
    );
    assert_eq!(backups.len(), engines.len());
    for (g, (p, b)) in engines.iter().zip(backups).enumerate() {
        assert_eq!(
            p.fingerprint(),
            b.fingerprint(),
            "group {g} backup diverged from its primary"
        );
        assert_eq!(p.live_undo_buffers(), 0, "group {g}");
    }
}

/// Run every `(point, seed)` and fail with the list of those that did not
/// drain and converge, each reproducible from what it prints.
fn sweep(runs: impl Iterator<Item = (Point, Option<u64>)>) {
    let (mut total, mut failed) = (0, String::new());
    for (point, seed) in runs {
        total += 1;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| kill_at(point, seed))) {
            let why = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .and_then(|why| why.lines().next());
            failed += &format!("\n{point:?} preempt={seed:?}: {}", why.unwrap_or("?"));
        }
    }
    let n = failed.lines().count().saturating_sub(1);
    assert!(failed.is_empty(), "{n} of {total} runs failed:{failed}");
}

/// The sweep's size is part of its contract: a config change that made a
/// point inert (or live) would silently shrink (or grow) it.
#[test]
fn sweep_sizes_are_pinned() {
    assert_eq!(points().len(), 1_204);
    assert_eq!(preempted_points().count(), 1_075);
}

#[test]
fn kill_at_every_point_drains_and_converges() {
    sweep(points().into_iter().map(|p| (p, None)));
}

/// Point `i` takes seed `i % SEEDS`, so a failure here reproduces in the
/// full sweep below.
#[test]
fn kill_at_every_point_with_preempted_senders_drains_and_converges() {
    sweep(
        preempted_points()
            .zip(0..)
            .map(|(p, i)| (p, Some(i % SEEDS))),
    );
}

/// The explorer's per-push seed budget: every point under every seed.
#[test]
#[ignore = "34 k simulated runs: run in release (CI smoke `preempt-sweep`)"]
fn kill_at_every_point_under_every_preemption_seed() {
    sweep(preempted_points().flat_map(|p| (0..SEEDS).map(move |s| (p, Some(s)))));
}

/// Pinned from the preempted sweep. Shard 1 re-delivers an in-doubt commit
/// to P1's promoted primary, and a transaction of shard 0 speculates behind
/// its re-execution. Shard 0 still holds the dead primary's record of the
/// commit at P1: attempt 0, as the re-execution's is, since attempts
/// restart at 0 on a promoted primary. Unless the membership epoch in the
/// attempt tells them apart, shard 0 commits its transaction while the
/// re-execution still heads P1's chain.
#[test]
fn peer_dependent_of_a_re_execution_waits_for_its_vote() {
    let point = Point {
        scheme: Scheme::Speculative,
        shards: 2,
        sequenced: true,
        mp: 1.0,
        at: FailAt::Time(Nanos(3_500_000)),
    };
    kill_at(point, Some(10));
}
