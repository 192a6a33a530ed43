//! The simulator is a pure function of (config, workload seed): identical
//! runs produce identical results, and different seeds differ. This is
//! what makes every figure `repro` draws, and every row of the golden
//! table (`crates/bench/goldens.tsv`), exactly reproducible.

use hcc_bench::goldens;
use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_runtime::{BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};

fn run(scheme: Scheme, seed: u64) -> (u64, u64, u64, Vec<u64>) {
    let micro = MicroConfig {
        mp_fraction: 0.3,
        abort_prob: 0.05,
        seed,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(40)
        .with_seed(seed);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
    let builder = MicroWorkload::new(micro);
    let r = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    (
        r.committed,
        r.virtual_time.unwrap().events,
        r.user_aborts,
        r.engines.iter().map(|e| e.fingerprint()).collect(),
    )
}

/// Perf-neutrality guard for hot-path work: for a fixed seed the four
/// schemes on the base point (2 partitions, 24 clients, 30 % multi-partition,
/// a co-located shadow) reproduce their rows of the golden table bit for
/// bit — counts, latency quantiles, every primary's and shadow's
/// fingerprint — and pass its checks: shadow == primary, no stray
/// decision, no replay failure, blocking speculates nothing. An
/// optimisation that moves them changed scheduling semantics, not just
/// speed.
#[test]
fn golden_fixed_seed_results_survive_fast_path_rewrite() {
    goldens::assert_reproduced(&[
        "micro/blocking/p2/r1/d0/sh1/seq0/ad0/kill0",
        "micro/speculation/p2/r1/d0/sh1/seq0/ad0/kill0",
        "micro/locking/p2/r1/d0/sh1/seq0/ad0/kill0",
        "micro/occ/p2/r1/d0/sh1/seq0/ad0/kill0",
    ]);
}

/// Coordinator scale-out determinism: for each shard count the simulation
/// stays a pure function of the seed (bit-identical reruns), and
/// different shard counts genuinely change the schedule (different
/// interleavings at the partitions) while committing the same workload
/// kinds.
#[test]
fn sharded_coordinators_are_deterministic_per_shard_count() {
    let run_n = |coordinators: u32| {
        let micro = MicroConfig {
            mp_fraction: 0.5,
            abort_prob: 0.05,
            clients: 24,
            seed: 0xC0,
            ..Default::default()
        };
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(24)
            .with_seed(0xC0)
            .with_coordinators(coordinators);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
        let builder = MicroWorkload::new(micro);
        let r = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        let (engines, shadow) = (&r.engines, &r.backups);
        assert_eq!(shadow.len(), engines.len(), "shadow enabled");
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            assert_eq!(
                e.fingerprint(),
                s.fingerprint(),
                "N={coordinators}: P{i} primary and shadow replica diverged"
            );
        }
        assert_eq!(r.replication.replay_failures, 0, "N={coordinators}");
        (
            r.committed,
            r.user_aborts,
            r.virtual_time.unwrap().events,
            engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
        )
    };
    let mut fingerprints = Vec::new();
    for n in [1u32, 2, 4] {
        let a = run_n(n);
        let b = run_n(n);
        assert_eq!(a, b, "N={n}: sharded run must be bit-deterministic");
        assert!(a.0 > 500, "N={n}: throughput collapsed ({})", a.0);
        fingerprints.push(a.3.clone());
    }
    assert_ne!(
        fingerprints[0], fingerprints[1],
        "different shard counts must explore different schedules"
    );
}

/// Coordinator scale-out shape (§5.1: "the central coordinator uses 100%
/// of the CPU and cannot handle more messages"): at 100% multi-partition
/// the singleton is the measured bottleneck; with clients aligned to the
/// data partitioning (4 affinity groups on 8 partitions, so shards own
/// disjoint partition subsets) 2 and 4 shards each nearly double the
/// previous; unaligned, the §4.2.2 same-coordinator-chain rule bites
/// (cross-shard waits) and sharding buys almost nothing.
#[test]
fn aligned_shards_scale_past_the_saturated_singleton() {
    let point = |coordinators: u32, aligned: bool| {
        let micro = MicroConfig {
            partitions: 8,
            clients: 128,
            mp_fraction: 1.0,
            affinity_groups: if aligned { 4 } else { 1 },
            seed: 0x94,
            ..Default::default()
        };
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(8)
            .with_clients(128)
            .with_seed(0x94)
            .with_coordinators(coordinators);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(30), Nanos::from_millis(150));
        let builder = MicroWorkload::new(micro);
        hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        })
    };
    let single = point(1, true);
    let coordinator_utilization = single.virtual_time.unwrap().coordinator_utilization;
    assert!(
        coordinator_utilization > 0.9,
        "singleton coordinator should saturate at mp=1.0 (got {:.0}%)",
        coordinator_utilization * 100.0
    );
    let mut prev = single.throughput_tps;
    for n in [2u32, 4] {
        let tps = point(n, true).throughput_tps;
        assert!(
            tps > 1.6 * prev,
            "{n} aligned shards should ~double {} ({tps:.0} vs {prev:.0} tps)",
            n / 2
        );
        prev = tps;
    }
    let unaligned = point(2, false);
    assert!(
        unaligned.sched.cross_coord_waits > 0,
        "unaligned sharding must exhibit cross-shard waits"
    );
    assert!(
        unaligned.throughput_tps < 1.5 * single.throughput_tps,
        "unaligned sharding should NOT scale like aligned ({:.0} vs {:.0} tps) — \
         that's the dependency protocol breaking, not a regression",
        unaligned.throughput_tps,
        single.throughput_tps
    );
}

#[test]
fn identical_seeds_produce_identical_runs() {
    for scheme in Scheme::ALL {
        let a = run(scheme, 99);
        let b = run(scheme, 99);
        assert_eq!(a, b, "{scheme}: simulation must be deterministic");
    }
}

#[test]
fn different_seeds_produce_different_histories() {
    let a = run(Scheme::Speculative, 1);
    let b = run(Scheme::Speculative, 2);
    assert_ne!(a.3, b.3, "different seeds must explore different histories");
}

#[test]
fn zero_mp_throughput_is_the_t_sp_bound() {
    // 2 partitions × (1 / 64 µs) = 31 250 tps; the simulator should land
    // within 2% (boundary effects only).
    let micro = MicroConfig::default();
    let system = SystemConfig::new(Scheme::Blocking)
        .with_partitions(2)
        .with_clients(40);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(50), Nanos::from_millis(500));
    let builder = MicroWorkload::new(micro);
    let r = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    let err = (r.throughput_tps - 31_250.0).abs() / 31_250.0;
    assert!(err < 0.02, "measured {} tps", r.throughput_tps);
    let vt = r.virtual_time.unwrap();
    assert!(vt.partition_utilization > 0.98, "partitions must saturate");
    assert!(
        vt.coordinator_utilization < 0.01,
        "no MP work, no coordinator"
    );
}

#[test]
fn window_length_does_not_change_steady_state() {
    let micro = MicroConfig {
        mp_fraction: 0.2,
        ..Default::default()
    };
    let mut rates = Vec::new();
    for measure in [200u64, 600] {
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(40);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(100), Nanos::from_millis(measure));
        let builder = MicroWorkload::new(micro);
        let r = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        rates.push(r.throughput_tps);
    }
    let diff = (rates[0] - rates[1]).abs() / rates[1];
    assert!(diff < 0.03, "window sensitivity: {rates:?}");
}
