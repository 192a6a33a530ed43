//! End-to-end simulation tests on the microbenchmark: every scheme must
//! produce serializable histories (shadow replica ≡ primary state) and the
//! relative performance relationships of the paper must hold.

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_runtime::{BackendChoice, RuntimeConfig, RuntimeReport, Simulation};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

fn run(
    scheme: Scheme,
    mp: f64,
    mutate: impl FnOnce(&mut MicroConfig),
) -> RuntimeReport<MicroEngine> {
    let (r, _) = run_full(scheme, mp, mutate);
    r
}

fn run_full(
    scheme: Scheme,
    mp: f64,
    mutate: impl FnOnce(&mut MicroConfig),
) -> (RuntimeReport<MicroEngine>, MicroWorkload) {
    let mut mc = MicroConfig {
        mp_fraction: mp,
        ..Default::default()
    };
    mutate(&mut mc);
    let system = SystemConfig::new(scheme)
        .with_partitions(mc.partitions)
        .with_clients(mc.clients);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(50), Nanos::from_millis(300));
    let workload = MicroWorkload::new(mc);
    let build = {
        let w = MicroWorkload::new(mc);
        move |p| w.build_engine(p)
    };
    let sim = Simulation::new(cfg, workload, build);
    sim.run()
}

/// The simulation drains to quiescence after the window, so the shadow
/// replica (serial execution in commit order) must match the primary
/// bit-for-bit — this *is* the serializability check, and doubles as the
/// paper's primary/backup state equivalence.
fn assert_serializable(engines: &[MicroEngine], shadow: &[MicroEngine], label: &str) {
    assert_eq!(shadow.len(), engines.len(), "shadow enabled");
    for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
        assert_eq!(e.live_undo_buffers(), 0, "{label}: P{i} undo buffers leak");
        assert_eq!(
            e.fingerprint(),
            s.fingerprint(),
            "{label}: partition {i} diverged from its serial shadow"
        );
    }
}

#[test]
fn all_schemes_match_at_zero_mp() {
    // Paper Fig. 4: "the performance of locking is very close to the other
    // schemes at 0% multi-partition transactions".
    let b = run(Scheme::Blocking, 0.0, |_| {});
    let s = run(Scheme::Speculative, 0.0, |_| {});
    let l = run(Scheme::Locking, 0.0, |_| {});
    assert!(b.committed > 1000);
    let base = b.throughput_tps;
    for (name, r) in [("spec", &s), ("locking", &l)] {
        let ratio = r.throughput_tps / base;
        assert!(
            (0.97..=1.03).contains(&ratio),
            "{name}: {} vs {}",
            r.throughput_tps,
            base
        );
    }
    // All single-partition work rides the no-undo fast path.
    assert!(s.sched.fast_path > 0);
    assert!(l.sched.fast_path > 0);
    assert_eq!(l.sched.locks_waited, 0);
}

#[test]
fn speculation_dominates_blocking_at_moderate_mp() {
    // Paper Fig. 4: blocking degrades steeply; speculation parallels
    // locking with ~10% higher throughput below the coordinator bottleneck.
    let b = run(Scheme::Blocking, 0.2, |_| {});
    let s = run(Scheme::Speculative, 0.2, |_| {});
    let l = run(Scheme::Locking, 0.2, |_| {});
    assert!(
        s.throughput_tps > 1.2 * b.throughput_tps,
        "spec {} vs blocking {}",
        s.throughput_tps,
        b.throughput_tps
    );
    assert!(
        s.throughput_tps > l.throughput_tps,
        "spec {} vs locking {}",
        s.throughput_tps,
        l.throughput_tps
    );
    assert!(
        s.sched.speculative_executions > 0,
        "speculation actually used"
    );
}

#[test]
fn locking_wins_at_high_mp_due_to_coordinator_bottleneck() {
    // Paper Fig. 4: past ~50% MP the central coordinator saturates and
    // locking (client-coordinated) outperforms speculation.
    let s = run(Scheme::Speculative, 1.0, |_| {});
    let l = run(Scheme::Locking, 1.0, |_| {});
    assert!(
        l.throughput_tps > s.throughput_tps,
        "locking {} vs spec {}",
        l.throughput_tps,
        s.throughput_tps
    );
    let coordinator_utilization = s.virtual_time.unwrap().coordinator_utilization;
    assert!(
        coordinator_utilization > 0.95,
        "coordinator saturated: {}",
        coordinator_utilization
    );
}

#[test]
fn serializability_shadow_replica_matches_for_all_schemes() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        // Conflict-heavy mix with aborts to stress cascades.
        let (r, _) = run_full(scheme, 0.3, |mc| {
            mc.abort_prob = 0.05;
            mc.clients = 10;
        });
        assert!(r.committed > 100, "{scheme}: {}", r.committed);
        assert_serializable(&r.engines, &r.backups, scheme.name());
    }
}
