//! Scan-heavy fragments through the simulator: determinism, the paper's
//! §5 fragment-length trade-off, and §3.3 recovery with the ordered
//! index populated.

use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::ycsb::{ycsb_key, YcsbEConfig, YcsbEWorkload};

fn scan_cfg(scan_len: u32, mp: f64, seed: u64) -> YcsbEConfig {
    YcsbEConfig {
        partitions: 2,
        clients: 24,
        keys_per_partition: 2048,
        theta: 0.8,
        scan_fraction: 0.75,
        insert_fraction: 0.15,
        delete_fraction: 0.05,
        scan_len,
        mp_fraction: mp,
        seed,
    }
}

struct ScanRun {
    committed: u64,
    events: u64,
    throughput: f64,
    fingerprints: Vec<u64>,
    ordered_fingerprints: Vec<u64>,
}

fn run_scan(scheme: Scheme, scan_len: u32, mp: f64, seed: u64, shadow: bool) -> ScanRun {
    let yc = scan_cfg(scan_len, mp, seed);
    let system = SystemConfig::new(scheme)
        .with_partitions(yc.partitions)
        .with_clients(yc.clients)
        .with_seed(seed);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(120));
    let builder = YcsbEWorkload::new(yc);
    let r = run(cfg, YcsbEWorkload::new(yc), move |p| {
        builder.build_engine(p)
    });
    let (engines, shadows) = (&r.engines, &r.backups);
    if shadow {
        assert_eq!(shadows.len(), engines.len(), "{scheme}: shadow enabled");
        for (i, (p, s)) in engines.iter().zip(shadows.iter()).enumerate() {
            assert_eq!(
                p.ordered_fingerprint(),
                s.ordered_fingerprint(),
                "{scheme}: P{i} shadow's ordered view diverged"
            );
        }
    }
    for (i, e) in engines.iter().enumerate() {
        e.check_ordered_invariants()
            .unwrap_or_else(|e| panic!("{scheme}: P{i} ordered index inconsistent: {e}"));
        assert_eq!(e.live_undo_buffers(), 0, "{scheme}: P{i} leaked undo");
    }
    assert_eq!(r.sched.stray_decisions, 0, "{scheme}");
    ScanRun {
        committed: r.committed,
        events: r.virtual_time.unwrap().events,
        throughput: r.throughput_tps,
        fingerprints: engines.iter().map(|e| e.fingerprint()).collect(),
        ordered_fingerprints: engines.iter().map(|e| e.ordered_fingerprint()).collect(),
    }
}

/// Every scheme commits scan-heavy work, stays bit-deterministic per
/// seed, and keeps the shadow replica's ordered view identical to the
/// primary's (the serializability cross-check extended to scans).
#[test]
fn scan_heavy_mix_is_deterministic_for_all_schemes() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let a = run_scan(scheme, 24, 0.3, 0xE5, true);
        let b = run_scan(scheme, 24, 0.3, 0xE5, true);
        assert!(a.committed > 300, "{scheme}: only {}", a.committed);
        assert_eq!(a.committed, b.committed, "{scheme}");
        assert_eq!(a.events, b.events, "{scheme}");
        assert_eq!(a.fingerprints, b.fingerprints, "{scheme}");
        assert_eq!(a.ordered_fingerprints, b.ordered_fingerprints, "{scheme}");
        let c = run_scan(scheme, 24, 0.3, 0xE6, true);
        assert_ne!(
            a.fingerprints, c.fingerprints,
            "{scheme}: different seeds must differ"
        );
    }
}

/// The paper's §5 claim reproduced on scans: fragment *length* is what
/// separates the schemes. At a fixed multi-partition fraction, longer
/// scans stretch every 2PC stall relative to useful work — blocking
/// wastes the whole stall, speculation hides it — so the
/// speculation/blocking throughput ratio must *grow* with scan length.
/// The crossover shifts the same way: locking's edge over speculation on
/// short fragments erodes as scans lengthen (it pays per-row lock
/// overhead on every scanned granule).
#[test]
fn longer_scans_widen_the_blocking_vs_speculation_gap() {
    let tput = |scheme: Scheme, len: u32| run_scan(scheme, len, 0.5, 0x5CA, false).throughput;
    let ratio = |len: u32| {
        let b = tput(Scheme::Blocking, len);
        let s = tput(Scheme::Speculative, len);
        (s / b, b, s)
    };
    let (short_ratio, sb, ss) = ratio(4);
    let (long_ratio, lb, ls) = ratio(96);
    let edge_short = tput(Scheme::Locking, 4) / ss;
    let edge_long = tput(Scheme::Locking, 96) / ls;
    assert!(
        edge_long < edge_short,
        "locking's short-fragment edge must erode with scan length: \
         len=4 → {edge_short:.2}, len=96 → {edge_long:.2}"
    );
    assert!(
        long_ratio > short_ratio,
        "gap must widen with scan length: len=4 → {short_ratio:.3} \
         ({sb:.0} vs {ss:.0} tps), len=96 → {long_ratio:.3} ({lb:.0} vs {ls:.0} tps)"
    );
    assert!(
        long_ratio > 1.1,
        "speculation must clearly beat blocking on long scans (ratio {long_ratio:.3})"
    );
}

/// §3.3 recovery with the ordered index populated (ISSUE 5 satellite):
/// kill a primary mid-scan-heavy-run, promote its backup, rejoin the
/// dead node from a committed-state snapshot — and require the recovered
/// replica's *ordered iteration* (not just its row set) to match the
/// primary's, on both partitions, with the index internally consistent.
#[test]
fn recovery_rejoin_preserves_the_ordered_index() {
    let yc = scan_cfg(16, 0.25, 0xFA57);
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(24)
        .with_seed(0xFA57);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(120))
        .with_failure(FailurePlan {
            partition: PartitionId(1),
            at: FailAt::Time(Nanos::from_millis(40)),
            rejoin_delay: Nanos::from_millis(20),
        });
    let builder = YcsbEWorkload::new(yc);
    let r = run(cfg, YcsbEWorkload::new(yc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(r.replication.promotions, 1);
    assert_eq!(r.replication.recoveries, 1);
    assert_eq!(r.replication.replay_failures, 0);
    let (engines, replicas) = (&r.engines, &r.backups);
    assert!(!replicas.is_empty(), "failover runs keep replicas");
    for (i, (p, b)) in engines.iter().zip(replicas.iter()).enumerate() {
        assert!(b.scans_enabled(), "P{i}: recovered replica lost scan mode");
        b.check_ordered_invariants()
            .unwrap_or_else(|e| panic!("P{i}: recovered index inconsistent: {e}"));
        assert_eq!(p.fingerprint(), b.fingerprint(), "P{i}: row sets diverged");
        assert_eq!(
            p.ordered_fingerprint(),
            b.ordered_fingerprint(),
            "P{i}: recovered replica's ordered iteration diverged from the primary"
        );
        // And the scannable views agree row-for-row on a wide range.
        let lo = ycsb_key(i as u32, 0);
        let hi = ycsb_key(i as u32, u32::MAX as u64);
        assert_eq!(p.scan_values(lo, hi), b.scan_values(lo, hi), "P{i}");
    }
}
