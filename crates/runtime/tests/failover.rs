//! End-to-end kill → promote → recover (paper §3.3) on the live runtime.
//!
//! Each scenario runs a fixed-work load with a replicated partition,
//! crashes the primary of one group after a deterministic number of
//! shipped commit records, and requires that:
//!
//! * every client still drives every request to a final outcome (bounced
//!   transactions are transparently retried against the promoted backup),
//! * exactly one promotion and one recovery happen, with zero replay
//!   failures,
//! * the recovered node's store fingerprint equals the surviving (now
//!   primary) replica's — §3.3's "copy state from a live replica while
//!   the group keeps processing" actually converged,
//! * the untouched group's replicas also still agree.
//!
//! One scenario kills by the clock instead, with downtime: the reactor must
//! honour every field of the failure plan on the wall clock, as the
//! simulator does on its virtual one.
//!
//! All four schemes on both drivers: the simulator, the reference, and the
//! reactor.

use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};

const BACKENDS: [BackendChoice; 2] = [
    BackendChoice::Sim { shadow: false },
    BackendChoice::Multiplexed { workers: 4 },
];

fn failover_run_sharded(
    scheme: Scheme,
    backend: BackendChoice,
    replication: u32,
    coordinators: u32,
) -> RuntimeReport<MicroEngine> {
    // Kill P1's primary after 30 commits — early enough that hundreds of
    // transactions still flow through the promoted backup and the
    // recovered node afterwards.
    let plan = FailurePlan {
        partition: PartitionId(1),
        at: FailAt::Commits(30),
        rejoin_delay: Nanos::ZERO,
    };
    failover_run_planned(scheme, backend, replication, coordinators, plan)
}

fn failover_run_planned(
    scheme: Scheme,
    backend: BackendChoice,
    replication: u32,
    coordinators: u32,
    plan: FailurePlan,
) -> RuntimeReport<MicroEngine> {
    let clients = 16u32;
    let requests = 40u64;
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xFA11,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xFA11)
        .with_replication(replication)
        .with_coordinators(coordinators);
    let cfg = RuntimeConfig::fixed_work(system, backend, requests).with_failure(plan);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}: failover lost or duplicated client work"
    );
    let repl = &r.replication;
    assert_eq!(repl.promotions, 1, "{backend}/{scheme}");
    assert_eq!(repl.recoveries, 1, "{backend}/{scheme}");
    assert_eq!(repl.snapshots_served, 1, "{backend}/{scheme}");
    assert_eq!(
        repl.replay_failures, 0,
        "{backend}/{scheme}: replicas must replay cleanly through a failover"
    );
    assert!(
        repl.time_to_recover().is_some(),
        "{backend}/{scheme}: crash/recovery timestamps must be recorded"
    );
    r
}

#[test]
fn kill_promote_recover_converges_for_all_schemes_on_both_backends() {
    for backend in BACKENDS {
        for scheme in [
            Scheme::Blocking,
            Scheme::Speculative,
            Scheme::Locking,
            Scheme::Occ,
        ] {
            let r = failover_run_sharded(scheme, backend, 2, 1);
            // replication = 2: one backup per group. Group 0 is untouched
            // (primary slot 0 + backup slot 1); group 1 failed over
            // (promoted slot 1 is the primary, recovered slot 0 is the
            // backup).
            assert_eq!(r.engines.len(), 2, "{backend}/{scheme}");
            assert_eq!(r.backups.len(), 2, "{backend}/{scheme}");
            for group in 0..2 {
                assert_eq!(
                    r.engines[group].fingerprint(),
                    r.backups[group].fingerprint(),
                    "{backend}/{scheme}: group {group} replicas diverged \
                     (recovered node vs surviving primary)"
                );
            }
        }
    }
}

/// k = 2 backups: the surviving sibling backup keeps replaying the
/// promoted primary's log (sequence numbers continue across the
/// promotion), and the recovered node joins them — all three replicas of
/// the failed group must agree.
#[test]
fn failover_with_two_backups_keeps_every_replica_converged() {
    for backend in BACKENDS {
        let r = failover_run_sharded(Scheme::Speculative, backend, 3, 1);
        assert_eq!(r.engines.len(), 2);
        assert_eq!(r.backups.len(), 4, "{backend}: two live backups per group");
        // Backups are in (group, slot) order: [g0s1, g0s2, g1s0(recovered), g1s2].
        for group in 0..2usize {
            let primary = r.engines[group].fingerprint();
            for (i, b) in r.backups.iter().enumerate() {
                let b_group = i / 2;
                if b_group == group {
                    assert_eq!(
                        primary,
                        b.fingerprint(),
                        "{backend}: group {group} replica {i} diverged"
                    );
                }
            }
        }
    }
}

/// Failover with N > 1 coordinator shards: the control-plane membership
/// actor must fan the routing update out to every shard (each aborts its
/// own in-flight transactions), and the promoted backup + recovered node
/// must still converge with the primary — on both backends.
#[test]
fn failover_with_sharded_coordinators_converges() {
    for backend in BACKENDS {
        for coordinators in [2u32, 4] {
            let r = failover_run_sharded(Scheme::Speculative, backend, 2, coordinators);
            assert_eq!(r.engines.len(), 2, "{backend}/N={coordinators}");
            assert_eq!(r.backups.len(), 2, "{backend}/N={coordinators}");
            for group in 0..2 {
                assert_eq!(
                    r.engines[group].fingerprint(),
                    r.backups[group].fingerprint(),
                    "{backend}/N={coordinators}: group {group} replicas diverged"
                );
            }
        }
    }
}

/// The 2PC in-doubt window is *closed*: with a commutative workload that
/// includes multi-partition transactions, a mid-run crash must still be
/// invisible in the final state. Before the coordinator-side commit acks,
/// a commit decision in flight to the dying primary died with it — the
/// transaction's effects survived at the other participants but were lost
/// at the failed group, so with-failure and no-failure runs could
/// diverge. With acks + redelivery every unacknowledged commit is
/// re-executed at the promoted primary (and the exactly-once guard
/// prevents double-apply when the record did reach the backup), so the
/// final states must be bit-identical.
#[test]
fn in_doubt_commits_survive_failover_bit_for_bit() {
    let clients = 12u32;
    let requests = 50u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 512,
        theta: 0.8,
        read_fraction: 0.5,
        ops_per_txn: 8,
        mp_fraction: 0.35,
        seed: 0xD0B7,
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0xD0B7)
            .with_replication(2)
            .with_coordinators(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        (
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
            r.replication.promotions,
        )
    };
    let (clean, promotions) = run_once(None);
    assert_eq!(promotions, 0);
    let (failed, promotions) = run_once(Some(FailurePlan {
        partition: PartitionId(0),
        at: FailAt::Commits(60),
        rejoin_delay: Nanos::ZERO,
    }));
    assert_eq!(promotions, 1);
    assert_eq!(
        clean, failed,
        "an MP-carrying failover run diverged from the clean run — \
         the 2PC in-doubt window lost or duplicated a commit"
    );
}

/// With a single-partition-only commutative workload (the YCSB mix below
/// is pure reads + blind RMW increments), a mid-run crash must be
/// *invisible* in the final state: bounced transactions retry until they
/// execute exactly once, and every committed record reached the backup
/// before the primary acknowledged it — so the with-failure run's
/// committed state equals the no-failure run's, bit for bit.
#[test]
fn failover_is_state_invisible_for_sp_only_workloads() {
    let clients = 12u32;
    let requests = 50u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 512,
        theta: 0.8,
        read_fraction: 0.5,
        ops_per_txn: 8,
        mp_fraction: 0.0,
        seed: 0x1CE,
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x1CE)
            .with_replication(2);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        (
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
            r.replication.promotions,
        )
    };
    let (clean, promotions) = run_once(None);
    assert_eq!(promotions, 0);
    let (failed, promotions) = run_once(Some(FailurePlan {
        partition: PartitionId(0),
        at: FailAt::Commits(40),
        rejoin_delay: Nanos::ZERO,
    }));
    assert_eq!(promotions, 1);
    assert_eq!(
        clean, failed,
        "a failover must not change the committed state of an SP-only run"
    );
}

/// A [`FailAt::Time`] crash with downtime: each driver sends the crash on
/// its clock and holds the membership actor's `Rejoin` for
/// `rejoin_delay`, so the failed node recovers no sooner than that after it
/// died — and still converges.
#[test]
fn timed_kill_with_downtime_recovers_on_both_backends() {
    let rejoin_delay = Nanos::from_millis(20);
    let plan = FailurePlan {
        partition: PartitionId(1),
        at: FailAt::Time(Nanos::from_millis(2)),
        rejoin_delay,
    };
    for backend in BACKENDS {
        let r = failover_run_planned(Scheme::Speculative, backend, 2, 1, plan);
        let down = r.replication.time_to_recover().expect("timestamps");
        assert!(
            down >= rejoin_delay,
            "{backend}: recovered {down} after the crash, inside its {rejoin_delay} downtime"
        );
        for group in 0..2 {
            assert_eq!(
                r.engines[group].fingerprint(),
                r.backups[group].fingerprint(),
                "{backend}: group {group} replicas diverged"
            );
        }
    }
}
