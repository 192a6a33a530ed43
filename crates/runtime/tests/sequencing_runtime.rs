//! Epoch sequencing on the live runtime (ISSUE 8): both backends drive
//! the same coordinator and `PartitionSequencer` state machines the sim
//! does, so a fixed-work run with sequencing on must leave bit-identical
//! committed state regardless of backend, worker pool, or shard count —
//! and a sequenced run must never issue a `CrossCoordinator` expiry
//! abort (the merged epoch order leaves nothing for expiry to break).

use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::ycsb::{YcsbConfig, YcsbWorkload};

/// Fixed-work fingerprints with sequencing on: 4 partitions, unaligned
/// clients, `coordinators` shards.
fn fingerprints_sequenced(
    scheme: Scheme,
    backend: BackendChoice,
    coordinators: u32,
) -> (Vec<u64>, u64, u64) {
    let clients = 16u32;
    let requests = 25u64;
    let mc = MicroConfig {
        partitions: 4,
        clients,
        mp_fraction: 0.4,
        abort_prob: 0.05,
        seed: 0x8E,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(4)
        .with_clients(clients)
        .with_seed(0x8E)
        .with_coordinators(coordinators)
        .with_sequencing(true);
    let cfg = RuntimeConfig::fixed_work(system, backend, requests);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}/N={coordinators}: wrong amount of work performed"
    );
    for (i, e) in r.engines.iter().enumerate() {
        assert_eq!(
            e.live_undo_buffers(),
            0,
            "{backend}/{scheme}/N={coordinators}: P{i} leaked undo buffers"
        );
    }
    assert_eq!(
        r.sequencer.cross_coord_aborts, 0,
        "{backend}/{scheme}/N={coordinators}: CrossCoordinator abort under sequencing"
    );
    if r.sequencer.epochs_closed > 0 {
        assert!(r.sequencer.batch_sum > 0);
        assert!(r.sequencer.seq_hold.count() > 0);
    }
    (
        r.engines.iter().map(|e| e.fingerprint()).collect(),
        r.clients.committed,
        r.clients.user_aborted,
    )
}

/// Satellite (c): backend equivalence at sequencing on × shards ∈
/// {1, 2, 4} × all four schemes. The locking scheme treats the knob as
/// inert (client-driven 2PC has no central dispatch to sequence) but must
/// still agree across backends with it set.
#[test]
fn sequenced_backends_agree_across_schemes_and_shard_counts() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        for coordinators in [1u32, 2, 4] {
            let sim =
                fingerprints_sequenced(scheme, BackendChoice::Sim { shadow: false }, coordinators);
            let multiplexed = fingerprints_sequenced(
                scheme,
                BackendChoice::Multiplexed { workers: 4 },
                coordinators,
            );
            assert_eq!(
                sim, multiplexed,
                "{scheme}/N={coordinators}: committed state diverged between backends"
            );
        }
    }
}

/// A sequenced run is reproducible within the multiplexed backend across
/// pool sizes (who runs the actors must not change what commits).
#[test]
fn sequenced_fixed_work_is_worker_count_invariant() {
    let a = fingerprints_sequenced(
        Scheme::Speculative,
        BackendChoice::Multiplexed { workers: 4 },
        4,
    );
    let b = fingerprints_sequenced(
        Scheme::Speculative,
        BackendChoice::Multiplexed { workers: 2 },
        4,
    );
    assert_eq!(a, b, "worker count changed sequenced committed state");
}

/// Failover mid-epoch on the live runtime: a primary dies under sequenced
/// multi-partition traffic, the promoted backup's fresh epoch gate syncs
/// into the merge, and the run must end bit-identical to a no-failure run
/// (no acked commit lost, no duplicate) with replicas converged.
#[test]
fn sequenced_failover_preserves_committed_state() {
    let clients = 16u32;
    let requests = 40u64;
    let yc = YcsbConfig {
        partitions: 2,
        clients,
        keys_per_partition: 1024,
        read_fraction: 0.6,
        mp_fraction: 0.3,
        seed: 0x4D,
        ..Default::default()
    };
    let run_once = |failure: Option<FailurePlan>| {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(clients)
            .with_seed(0x4D)
            .with_replication(2)
            .with_coordinators(2)
            .with_sequencing(true);
        let mut cfg =
            RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, requests);
        cfg.failure = failure;
        let builder = YcsbWorkload::new(yc);
        let r = run(cfg, YcsbWorkload::new(yc), move |p| builder.build_engine(p));
        assert_eq!(r.clients.committed, clients as u64 * requests);
        assert_eq!(r.replication.replay_failures, 0);
        assert_eq!(r.sequencer.cross_coord_aborts, 0);
        r
    };
    let clean = run_once(None);
    let failed = run_once(Some(FailurePlan {
        partition: PartitionId(1),
        at: FailAt::Commits(120),
        rejoin_delay: Nanos::ZERO,
    }));
    assert_eq!(failed.replication.promotions, 1, "the kill must have fired");
    assert_eq!(failed.replication.recoveries, 1);
    for g in 0..2usize {
        assert_eq!(
            failed.engines[g].fingerprint(),
            failed.backups[g].fingerprint(),
            "group {g}: replicas diverged after a sequenced failover"
        );
        assert_eq!(
            failed.engines[g].fingerprint(),
            clean.engines[g].fingerprint(),
            "group {g}: sequenced failover changed committed state"
        );
    }
}
