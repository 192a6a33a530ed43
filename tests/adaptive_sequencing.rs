//! Adaptive scheme selection with epoch sequencing on: the two compose.
//! The adaptive controller holds round-0 fragments *after* the partition's
//! sequencer has admitted them and replays them in that order, so a live
//! swap never reorders the merged epoch order. And under adaptive
//! selection multi-partition work always passes the coordinator shards
//! (`SystemConfig::client_2pc` is off), so a run that *starts* in locking
//! is sequenced too.
//!
//! The Locking-start runs assert correctness only (determinism, primary ==
//! shadow, backends agreeing, failover converging), not throughput: when
//! the two partitions end up on different schemes, a speculating partition
//! and a locking one can wait on each other in a cycle the lock manager
//! cannot see, which only the 20 ms lock timeout breaks. That stall is
//! adaptive's own, with sequencing off too (ROADMAP), so it is not what
//! these tests are about. Blocking and OCC starts also assert a throughput
//! floor, as `adaptive_switching.rs` does.

use hcc::prelude::*;
use hcc::workloads::micro::MicroEngine;
use hcc::workloads::phased::PhasedMicroWorkload;

const CLIENTS: u32 = 24;

fn system(start: Scheme, partitions: u32, shards: u32, seed: u64) -> SystemConfig {
    SystemConfig::new(start)
        .with_partitions(partitions)
        .with_clients(CLIENTS)
        .with_seed(seed)
        .with_coordinators(shards)
        .with_sequencing(true)
        .with_adaptive(AdaptiveConfig::Model {
            margin: 0.05,
            window: 64,
        })
}

fn phased(partitions: u32, seed: u64, per_phase: u64) -> PhasedMicroWorkload {
    PhasedMicroWorkload::standard(partitions, CLIENTS, seed, per_phase)
}

fn fingerprints(engines: &[MicroEngine]) -> Vec<u64> {
    engines.iter().map(MicroEngine::fingerprint).collect()
}

/// One timed simulator run on the standard three-phase schedule.
fn sim_run(cfg: RuntimeConfig, partitions: u32, seed: u64) -> RuntimeReport<MicroEngine> {
    let builder = phased(partitions, seed, 40);
    run(cfg, phased(partitions, seed, 40), move |p| {
        builder.build_engine(p)
    })
}

/// The sim is a pure function of (config, seed) with both features on,
/// and the shadow's serial replay of each partition's commit log lands on
/// the primary's state: the swaps followed the merged epoch order.
#[test]
fn adaptive_sequenced_sim_is_deterministic_and_serially_equivalent() {
    for (partitions, shards) in [(2, 1), (4, 2), (4, 4)] {
        for seed in [1u64, 7, 42] {
            let once = || {
                let cfg = RuntimeConfig::new(
                    system(Scheme::Blocking, partitions, shards, seed),
                    BackendChoice::Sim { shadow: true },
                )
                .with_window(Nanos::from_millis(20), Nanos::from_millis(250));
                let r = sim_run(cfg, partitions, seed);
                (
                    r.committed,
                    r.retries,
                    r.virtual_time.unwrap().events,
                    r.adaptive.switch_log.clone(),
                    r.sequencer.epochs_closed,
                    r.sequencer.cross_coord_aborts,
                    r.replication.replay_failures,
                    fingerprints(&r.engines),
                    fingerprints(&r.backups),
                )
            };
            let a = once();
            let at = format!("P={partitions} shards={shards} seed={seed}");
            assert!(a.0 > 500, "{at}: throughput collapsed: {}", a.0);
            assert!(!a.3.is_empty(), "{at}: the controller never switched");
            assert!(a.4 > 0, "{at}: sequencing never closed an epoch");
            assert_eq!(a.5, 0, "{at}: CrossCoordinator abort under sequencing");
            assert_eq!(a.6, 0, "{at}: shadow replay failed");
            assert_eq!(a.7, a.8, "{at}: primary diverged from its serial replay");
            assert_eq!(a, once(), "{at}: not bit-deterministic");
        }
    }
}

/// Fixed work: the reactor at 1, 2 and 4 workers lands on the simulator's
/// committed state, from a Blocking and from a Locking start. An adaptive
/// run that starts in Locking is sequenced (its epochs close), where
/// pinned locking never is.
#[test]
fn adaptive_sequenced_reactor_matches_the_sim() {
    let committed = |start: Scheme, partitions, shards, backend: BackendChoice| {
        let seed = 0xBEEF;
        let builder = phased(partitions, seed, 30);
        let requests = builder.total_requests_per_client();
        let cfg =
            RuntimeConfig::fixed_work(system(start, partitions, shards, seed), backend, requests);
        let r = run(cfg, phased(partitions, seed, 30), move |p| {
            builder.build_engine(p)
        });
        let at = format!("{backend}/{start} P={partitions} shards={shards}");
        assert_eq!(
            r.clients.committed + r.clients.user_aborted,
            u64::from(CLIENTS) * requests,
            "{at}: wrong amount of work performed"
        );
        assert!(r.sequencer.epochs_closed > 0, "{at}: not sequenced");
        assert_eq!(r.sequencer.cross_coord_aborts, 0, "{at}");
        assert_eq!(r.sched.stray_decisions, 0, "{at}: stray decision");
        for (i, e) in r.engines.iter().enumerate() {
            assert_eq!(e.live_undo_buffers(), 0, "{at}: P{i} leaked undo buffers");
        }
        fingerprints(&r.engines)
    };
    for start in [Scheme::Blocking, Scheme::Locking] {
        for (partitions, shards) in [(2, 1), (2, 2), (4, 2)] {
            let sim = committed(
                start,
                partitions,
                shards,
                BackendChoice::Sim { shadow: false },
            );
            for workers in [1usize, 2, 4] {
                assert_eq!(
                    sim,
                    committed(
                        start,
                        partitions,
                        shards,
                        BackendChoice::Multiplexed { workers }
                    ),
                    "{start} P={partitions} shards={shards}: diverged at {workers} workers"
                );
            }
        }
    }
}

/// Kill P1's primary mid-run, with the controller live and epochs in
/// flight: one promotion, one recovery, the rejoined node equal to the
/// promoted primary, and the whole scenario bit-deterministic.
#[test]
fn adaptive_sequenced_failover_converges_deterministically() {
    for start in [Scheme::Blocking, Scheme::Locking, Scheme::Occ] {
        for shards in [1, 2] {
            for seed in [1u64, 7, 42] {
                let once = || {
                    let cfg = RuntimeConfig::new(
                        system(start, 2, shards, seed).with_replication(2),
                        BackendChoice::Sim { shadow: true },
                    )
                    .with_window(Nanos::from_millis(20), Nanos::from_millis(250))
                    .with_failure(FailurePlan {
                        partition: PartitionId(1),
                        at: FailAt::Time(Nanos::from_millis(120)),
                        rejoin_delay: Nanos::from_millis(30),
                    });
                    let r = sim_run(cfg, 2, seed);
                    (
                        r.committed,
                        r.replication,
                        r.adaptive.switch_log.clone(),
                        fingerprints(&r.engines),
                        fingerprints(&r.backups),
                    )
                };
                let a = once();
                let at = format!("{start} shards={shards} seed={seed}");
                if start != Scheme::Locking {
                    assert!(a.0 > 500, "{at}: throughput collapsed: {}", a.0);
                }
                assert_eq!(a.1.promotions, 1, "{at}");
                assert_eq!(a.1.recoveries, 1, "{at}");
                assert_eq!(a.1.replay_failures, 0, "{at}");
                assert_eq!(
                    a.3, a.4,
                    "{at}: recovered replica diverged from the primary"
                );
                assert_eq!(a, once(), "{at}: not bit-deterministic");
            }
        }
    }
}
