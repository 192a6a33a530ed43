//! Property-based recovery oracle: for *random* workload mixes, sync
//! latencies, crash indices, and schemes, recovery from the
//! surviving log image must always equal the serial replay of the exact
//! durable prefix — with or without a torn tail — and must never lose a
//! commit that was acked to a client.
//!
//! The crash-sweep test walks every commit boundary of one fixed
//! workload; this one walks random points of random workloads, which is
//! where unmodeled interactions (mp fraction × batch size × crash index)
//! would hide. Group commit has no knob of its own: a batch is what
//! commits while the previous sync is in flight, so the sync latency is
//! what varies the batch size here.

use hcc_common::{
    CommitRecord, DurabilityConfig, FxHashMap, Nanos, PartitionId, Scheme, SystemConfig, TxnId,
};
use hcc_core::{recover_partition, ReplicaCore};
use hcc_runtime::sim::Simulation;
use hcc_runtime::{BackendChoice, RuntimeConfig};
use hcc_storage::FaultMode;
use hcc_workloads::micro::{MicroConfig, MicroFragment, MicroWorkload};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Blocking),
        Just(Scheme::Speculative),
        Just(Scheme::Locking),
        Just(Scheme::Occ),
    ]
}

#[derive(Debug, Clone)]
struct Case {
    scheme: Scheme,
    mp_fraction: f64,
    abort_prob: f64,
    seed: u64,
    sync_latency_us: u64,
    crash_at: u64,
    torn: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            scheme_strategy(),
            prop_oneof![Just(0.0), Just(0.1), Just(0.3), Just(0.6)],
            prop_oneof![Just(0.0), Just(0.05), Just(0.15)],
            any::<u16>(),
        ),
        (
            prop_oneof![Just(1u64), Just(20), Just(100), Just(500)],
            1u64..150,
            any::<bool>(),
        ),
    )
        .prop_map(
            |((scheme, mp_fraction, abort_prob, seed), (sync_latency_us, crash_at, torn))| Case {
                scheme,
                mp_fraction,
                abort_prob,
                seed: u64::from(seed),
                sync_latency_us,
                crash_at,
                torn,
            },
        )
}

fn serial_fingerprint(
    mc: MicroConfig,
    p: PartitionId,
    records: &[CommitRecord<MicroFragment>],
) -> u64 {
    let mut engine = MicroWorkload::new(mc).build_engine(p);
    let mut core = ReplicaCore::new();
    for r in records {
        core.apply(&mut engine, r).expect("serial oracle replay");
    }
    engine.fingerprint()
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let mc = MicroConfig {
        partitions: 2,
        clients: 8,
        mp_fraction: case.mp_fraction,
        abort_prob: case.abort_prob,
        seed: case.seed,
        ..Default::default()
    };
    let system = SystemConfig::new(case.scheme)
        .with_partitions(2)
        .with_clients(8)
        .with_seed(case.seed)
        .with_durability(DurabilityConfig {
            sync_latency: Nanos::from_micros(case.sync_latency_us),
            ..DurabilityConfig::default()
        });
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_micros(400), Nanos::from_micros(1500));
    let builder = MicroWorkload::new(mc);
    let mut sim = Simulation::new(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    if case.torn {
        for p in 0..2 {
            sim.set_log_fault(
                PartitionId(p),
                FaultMode {
                    torn_tail: true,
                    ..FaultMode::default()
                },
            );
        }
    }
    let h = sim.run_to_crash(case.crash_at);

    for (pi, image) in h.images.iter().enumerate() {
        let p = PartitionId(pi as u32);
        let snapshot = MicroWorkload::new(mc).build_engine(p);
        let out = recover_partition(snapshot, 0, image)
            .map_err(|e| TestCaseError::fail(format!("P{pi} recovery failed: {e}")))?;
        prop_assert_eq!(
            out.records_applied,
            h.durable[pi],
            "P{} replayed a different count than was durable",
            pi
        );
        prop_assert_eq!(out.replica.watermark(), h.durable[pi]);
        if !case.torn {
            prop_assert!(!out.torn_tail, "torn tail without the fault armed");
        }
        let prefix = &h.history[pi][..h.durable[pi] as usize];
        prop_assert_eq!(
            out.engine.fingerprint(),
            serial_fingerprint(mc, p, prefix),
            "P{}: recovered state != serial replay of the durable prefix",
            pi
        );
    }

    // No acked commit may be lost: every partition-touch of an acked
    // transaction lies inside that partition's durable prefix.
    let mut positions: FxHashMap<TxnId, Vec<(usize, u64)>> = FxHashMap::default();
    for (pi, recs) in h.history.iter().enumerate() {
        for r in recs {
            positions.entry(r.txn).or_default().push((pi, r.seq));
        }
    }
    for txn in &h.acked {
        let at = positions
            .get(txn)
            .ok_or_else(|| TestCaseError::fail(format!("acked {txn:?} has no commit record")))?;
        for (pi, seq) in at {
            prop_assert!(
                *seq <= h.durable[*pi],
                "acked {:?} not durable at P{} (seq {} > {})",
                txn,
                pi,
                seq,
                h.durable[*pi]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Recovery ≡ serial replay of the durable prefix, for any mix, any
    /// sync latency, any crash point, torn or clean.
    #[test]
    fn recovery_equals_durable_prefix(case in case_strategy()) {
        check(&case)?;
    }
}
