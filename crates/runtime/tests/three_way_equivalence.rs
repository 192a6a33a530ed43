//! The proof the simulator runs the production path: a fixed-work run
//! (every client drives exactly K seed-derived requests to a final outcome)
//! must leave bit-identical committed state whether the actors are stepped
//! by the virtual-time driver or by the reactor, on one worker or two —
//! `backend_equivalence.rs`'s argument (per-client request streams,
//! commutative key-disjoint effects, order-independent fingerprints) with
//! the simulator in the reference seat. Fixed work is
//! `RunMode::FixedRequests`, the mode `ClientActor::new(.., requests)`
//! gives every driver. One report means
//! the drivers also agree on what the window counted: committed, user
//! aborts and committed multi-partition transactions.

use hcc_common::{DurabilityConfig, PartitionId, Scheme, SystemConfig};
use hcc_core::recover_partition;
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport, Simulation};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Blocking,
    Scheme::Speculative,
    Scheme::Locking,
    Scheme::Occ,
];
const CLIENTS: u32 = 16;
const REQUESTS: u64 = 30;

fn micro() -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients: CLIENTS,
        mp_fraction: 0.3,
        abort_prob: 0.05,
        seed: 0x3A11,
        ..Default::default()
    }
}

fn system(scheme: Scheme) -> SystemConfig {
    SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(CLIENTS)
        .with_seed(0x3A11)
}

fn simulation(system: SystemConfig) -> Simulation<MicroWorkload> {
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Sim { shadow: false }, REQUESTS);
    let builder = MicroWorkload::new(micro());
    Simulation::new(cfg, MicroWorkload::new(micro()), move |p| {
        builder.build_engine(p)
    })
}

/// What the window counted.
fn outcomes(r: &RuntimeReport<MicroEngine>) -> (u64, u64, u64) {
    (r.committed, r.user_aborts, r.committed_mp)
}

/// Replay a log image onto a birth-state engine; the recovered fingerprint.
fn recovered(p: usize, image: &[u8]) -> u64 {
    let birth = MicroWorkload::new(micro()).build_engine(PartitionId(p as u32));
    let out = recover_partition(birth, 0, image).expect("log replays");
    assert!(!out.torn_tail, "a drained run leaves no torn tail");
    out.engine.fingerprint()
}

/// Replication 2: primary ≡ backup under every driver, and the three
/// drivers agree on what the primaries hold.
#[test]
fn replicated_fixed_work_agrees_across_all_three_drivers() {
    for scheme in SCHEMES {
        let system = system(scheme).with_replication(2);
        let (report, _) = simulation(system.clone()).run();
        assert_eq!(
            report.committed + report.user_aborts,
            u64::from(CLIENTS) * REQUESTS,
            "sim/{scheme}: wrong amount of work performed"
        );
        assert_eq!(report.replication.replay_failures, 0, "sim/{scheme}");
        let sim: Vec<u64> = report.engines.iter().map(|e| e.fingerprint()).collect();
        assert!(!report.backups.is_empty(), "replicated");
        let backups: Vec<u64> = report.backups.iter().map(|e| e.fingerprint()).collect();
        assert_eq!(sim, backups, "sim/{scheme}: backup diverged");

        for workers in [1, 2] {
            let backend = BackendChoice::Multiplexed { workers };
            let cfg = RuntimeConfig::fixed_work(system.clone(), backend, REQUESTS);
            let builder = MicroWorkload::new(micro());
            let r = run(cfg, MicroWorkload::new(micro()), move |p| {
                builder.build_engine(p)
            });
            assert_eq!(r.replication.replay_failures, 0, "{backend}/{scheme}");
            let live: Vec<u64> = r.engines.iter().map(|e| e.fingerprint()).collect();
            let live_backups: Vec<u64> = r.backups.iter().map(|e| e.fingerprint()).collect();
            assert_eq!(live, live_backups, "{backend}/{scheme}: backup diverged");
            assert_eq!(
                sim, live,
                "{scheme}: the simulator and {backend} committed different state"
            );
            assert_eq!(
                outcomes(&r),
                outcomes(&report),
                "{scheme}: the simulator and {backend} counted different outcomes"
            );
        }
    }
}

/// Durability on: recovery from the harvested log image alone reproduces
/// the live state under every driver, and the three drivers agree on it.
#[test]
fn durable_fixed_work_recovers_to_the_same_state_across_all_three_drivers() {
    for scheme in SCHEMES {
        let system = system(scheme).with_durability(DurabilityConfig::default());
        // The simulator hands back engines from `run` and log images from
        // the crash harness; it is deterministic, so two runs are one.
        let (report, _) = simulation(system.clone()).run();
        let harvest = simulation(system.clone()).run_to_crash(u64::MAX);
        assert!(!harvest.crashed, "sim/{scheme}: the run must drain");
        let sim: Vec<u64> = report.engines.iter().map(|e| e.fingerprint()).collect();
        for (p, image) in harvest.images.iter().enumerate() {
            assert_eq!(
                recovered(p, image),
                sim[p],
                "sim/{scheme}: P{p} log does not replay to the live state"
            );
        }

        for workers in [1, 2] {
            let backend = BackendChoice::Multiplexed { workers };
            let cfg = RuntimeConfig::fixed_work(system.clone(), backend, REQUESTS);
            let builder = MicroWorkload::new(micro());
            let r = run(cfg, MicroWorkload::new(micro()), move |p| {
                builder.build_engine(p)
            });
            let live: Vec<u64> = r.engines.iter().map(|e| e.fingerprint()).collect();
            for (p, image) in r.logs.iter().enumerate() {
                let image = image.as_ref().expect("a logging primary");
                assert_eq!(
                    recovered(p, image),
                    live[p],
                    "{backend}/{scheme}: P{p} log does not replay to the live state"
                );
            }
            assert_eq!(
                sim, live,
                "{scheme}: the simulator and {backend} committed different state"
            );
            assert_eq!(
                outcomes(&r),
                outcomes(&report),
                "{scheme}: the simulator and {backend} counted different outcomes"
            );
        }
    }
}
