//! Workspace-level serializability tests: for every scheme, across
//! randomized workload mixes, the final partition state must equal the
//! shadow replica's serial re-execution in commit order — i.e. every
//! concurrent history the schedulers produce is equivalent to a serial
//! one, and the paper's primary/backup replication yields identical state.

use hcc::prelude::*;
use hcc::workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use proptest::prelude::*;

fn run_one(
    scheme: Scheme,
    mp: f64,
    conflict: f64,
    abort: f64,
    two_round: bool,
    clients: u32,
    seed: u64,
) -> (
    RuntimeReport<MicroEngine>,
    Vec<MicroEngine>,
    Vec<MicroEngine>,
) {
    let micro = MicroConfig {
        mp_fraction: mp,
        conflict_prob: conflict,
        abort_prob: abort,
        two_round,
        clients,
        seed,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(seed);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(120));
    let builder = MicroWorkload::new(micro);
    let mut report = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    let (engines, shadow) = (
        std::mem::take(&mut report.engines),
        std::mem::take(&mut report.backups),
    );
    assert_eq!(shadow.len(), engines.len(), "shadow enabled");
    (report, engines, shadow)
}

fn assert_equivalent(scheme: Scheme, engines: &[MicroEngine], shadow: &[MicroEngine]) {
    for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
        assert_eq!(
            e.live_undo_buffers(),
            0,
            "{scheme}: P{i} leaked undo buffers"
        );
        assert_eq!(
            e.fingerprint(),
            s.fingerprint(),
            "{scheme}: P{i} state differs from serial commit-order execution"
        );
    }
}

#[test]
fn two_round_transactions_are_serializable_under_all_schemes() {
    for scheme in Scheme::ALL {
        let (r, engines, shadow) = run_one(scheme, 0.4, 0.0, 0.0, true, 12, 7);
        assert!(r.committed > 50, "{scheme}");
        assert_equivalent(scheme, &engines, &shadow);
    }
}

#[test]
fn abort_cascades_preserve_serializability() {
    for scheme in Scheme::ALL {
        let (r, engines, shadow) = run_one(scheme, 0.5, 0.0, 0.15, false, 12, 11);
        assert!(r.committed > 50, "{scheme}");
        assert!(r.user_aborts > 0, "{scheme}: aborts must actually occur");
        assert_equivalent(scheme, &engines, &shadow);
    }
}

#[test]
fn conflicts_with_deadlock_free_locking_are_serializable() {
    let (r, engines, shadow) = run_one(Scheme::Locking, 0.3, 0.8, 0.0, false, 12, 13);
    assert!(r.committed > 50);
    assert_eq!(r.sched.local_deadlocks, 0, "§5.2 workload is deadlock-free");
    assert_equivalent(Scheme::Locking, &engines, &shadow);
}

#[test]
fn occ_scheme_is_serializable_under_stress() {
    let (r, engines, shadow) = run_one(Scheme::Occ, 0.4, 0.5, 0.10, false, 12, 17);
    assert!(r.committed > 50);
    assert_equivalent(Scheme::Occ, &engines, &shadow);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Randomized workload mixes: every scheme must produce serializable
    /// histories for any (mp, conflict, abort, rounds, seed) combination.
    #[test]
    fn randomized_workloads_are_serializable(
        scheme_idx in 0usize..4,
        mp in 0.0f64..1.0,
        conflict in 0.0f64..1.0,
        abort in 0.0f64..0.25,
        two_round in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let scheme = [Scheme::Blocking, Scheme::Speculative, Scheme::Locking, Scheme::Occ][scheme_idx];
        // Conflicted two-round workloads can deadlock under locking (write
        // locks taken in round 1 after reads); the paper's §5.2 workload is
        // single-round. Keep the deadlock-free combination space.
        let conflict = if two_round { 0.0 } else { conflict };
        let (r, engines, shadow) = run_one(scheme, mp, conflict, abort, two_round, 8, seed);
        prop_assert!(r.committed > 0);
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            prop_assert_eq!(e.live_undo_buffers(), 0, "{} P{} leaked undo", scheme, i);
            prop_assert_eq!(
                e.fingerprint(),
                s.fingerprint(),
                "{} P{} not serializable (mp={}, conflict={}, abort={}, seed={})",
                scheme, i, mp, conflict, abort, seed
            );
        }
    }
}
