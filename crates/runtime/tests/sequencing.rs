//! Epoch-batched cross-shard sequencing: with `sequencing`
//! on, every coordinator shard accumulates its multi-partition
//! invocations into per-epoch logs and partitions dispatch round-0
//! fragments in the round-robin merge order of those logs — so
//! speculation chains legally span shards and the PR 4 retry storm
//! (`CrossCoordinator` expiry aborts on unaligned traffic) disappears.
//!
//! These tests pin the sim half of the contract: the retry-storm
//! regression, bit-determinism, serial equivalence of the
//! sequenced execution, and failover mid-epoch.

use hcc_bench::goldens;
use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
use hcc_core::sequencer::EPOCH_BATCH;
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

/// The PR 4 pain point: 8 partitions, 4 shards, *unaligned* clients
/// (`affinity_groups: 1`), half the traffic multi-partition.
fn unaligned_sharded(
    scheme: Scheme,
    sequencing: bool,
    seed: u64,
) -> (
    RuntimeReport<MicroEngine>,
    Vec<MicroEngine>,
    Vec<MicroEngine>,
) {
    let micro = MicroConfig {
        partitions: 8,
        clients: 128,
        mp_fraction: 0.5,
        affinity_groups: 1,
        seed,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(8)
        .with_clients(128)
        .with_seed(seed)
        .with_coordinators(4)
        .with_sequencing(sequencing);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(30), Nanos::from_millis(150));
    let builder = MicroWorkload::new(micro);
    let mut r = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    let (engines, shadow) = (
        std::mem::take(&mut r.engines),
        std::mem::take(&mut r.backups),
    );
    (r, engines, shadow)
}

/// Satellite (a): the retry-storm regression PR 4 measured. Sequencing
/// off, unaligned cross-shard chains are broken only by `lock_timeout`
/// expiry — retryable `CrossCoordinator` aborts in the hundreds. With
/// sequencing on they must be *zero* (the counter doubles as the assert:
/// the sim also debug-panics if one occurs while sequencing is active),
/// and the freed retry budget must show up as throughput.
#[test]
fn sequencing_eliminates_the_unaligned_retry_storm() {
    // 8 partitions, 128 clients, 4 shards; aligned = 4 affinity groups.
    let point = |sequencing: bool, mp: f64, aligned: bool, lock_timeout: Nanos| {
        let micro = MicroConfig {
            partitions: 8,
            clients: 128,
            mp_fraction: mp,
            affinity_groups: if aligned { 4 } else { 1 },
            seed: 0x94,
            ..Default::default()
        };
        let mut system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(8)
            .with_clients(128)
            .with_seed(0x94)
            .with_coordinators(4)
            .with_sequencing(sequencing);
        system.lock_timeout = lock_timeout;
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(30), Nanos::from_millis(150));
        let builder = MicroWorkload::new(micro);
        run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        })
    };
    // All-MP unaligned traffic with a tight expiry (the default 20 ms
    // timeout outlives most stalls in a 150 ms window; 2 ms is the
    // retry-storm shape PR 4 measured, where merely-slow cross-shard
    // chains get expired and resubmitted over and over).
    let storm = |sequencing| point(sequencing, 1.0, false, Nanos::from_millis(2));
    let off = storm(false);
    assert!(
        off.sequencer.cross_coord_aborts > 50,
        "baseline must reproduce the PR 4 retry storm (got {} aborts)",
        off.sequencer.cross_coord_aborts
    );
    assert!(off.retries > 50, "expiry aborts must drive client retries");
    assert_eq!(off.sequencer.epochs_closed, 0, "sequencer off must be idle");

    let on = storm(true);
    assert_eq!(
        on.sequencer.cross_coord_aborts, 0,
        "sequencing on: the merged epoch order leaves nothing for expiry to break"
    );
    assert_eq!(on.retries, 0, "no expiry aborts, no retry storm");
    assert!(on.sequencer.epochs_closed > 0, "epochs must actually close");
    assert!(
        on.committed as f64 >= 2.0 * off.committed as f64,
        "sequencing must unlock unaligned throughput ({} vs {} committed)",
        on.committed,
        off.committed
    );

    // The moderate shape (half the traffic multi-partition, default
    // expiry): the off baseline stalls behind cross-shard chains, the
    // sequenced run neither aborts nor loses throughput.
    let default_timeout = SystemConfig::new(Scheme::Speculative).lock_timeout;
    let half = |sequencing, aligned| point(sequencing, 0.5, aligned, default_timeout);
    let off = half(false, false);
    let on = half(true, false);
    assert!(
        off.sched.cross_coord_waits > 0,
        "the off baseline must reproduce the PR 4 cross-shard stalls"
    );
    assert_eq!(on.sequencer.cross_coord_aborts, 0, "mp=0.5");
    assert_eq!(on.retries, 0, "mp=0.5: no expiry aborts");
    assert!(
        on.throughput_tps >= off.throughput_tps,
        "sequencing must not lose throughput at mp=0.5 ({:.0} vs {:.0} tps)",
        on.throughput_tps,
        off.throughput_tps
    );

    // Aligned traffic pays the deterministic-ordering tax (epoch hold +
    // globally ordered MP dispatch) without needing it — cross-shard
    // conflicts never materialize when clients are partition-aligned, so
    // such deployments leave the knob off. The bound is a regression
    // fence around the measured ~0.5× tax, not a claim that sequencing
    // is free.
    let aligned_off = half(false, true);
    let aligned_on = half(true, true);
    assert!(
        aligned_on.throughput_tps > 0.45 * aligned_off.throughput_tps,
        "sequencing's ordering tax on aligned traffic regressed ({:.0} vs {:.0} tps)",
        aligned_on.throughput_tps,
        aligned_off.throughput_tps
    );
}

/// Satellite (b): per-epoch stats are populated and self-consistent.
#[test]
fn epoch_stats_are_populated_and_consistent() {
    let (r, _, _) = unaligned_sharded(Scheme::Speculative, true, 0x95);
    let s = &r.sequencer;
    assert!(s.epochs_closed > 0);
    assert!(s.batch_sum > 0);
    assert!(s.batch_max <= s.batch_sum);
    assert!(s.batch_max <= 64, "count boundary caps the batch");
    assert!(s.mean_batch() > 0.0 && s.mean_batch() <= 64.0);
    // Every close has a kind; count-closes are the remainder.
    assert!(s.forced_closes + s.age_closes <= s.epochs_closed);
    // Holds were recorded for the sequenced invocations.
    assert!(s.seq_hold.count() > 0, "seq_hold histogram must fill");
    // Healthy run: no failover, so no discarded logs or passthroughs.
    assert_eq!(s.logs_discarded, 0);
    assert_eq!(s.passthrough, 0);
}

/// Satellite (c): bit-determinism — the sim stays a pure function of
/// (config, seed) with sequencing on, and the count boundary caps every
/// epoch.
#[test]
fn sequencing_is_deterministic_per_epoch_size() {
    let digest = |r: &RuntimeReport<MicroEngine>, engines: &[MicroEngine]| {
        let lat = r.latency();
        let hold = r.sequencer.seq_hold.summary();
        (
            r.committed,
            r.virtual_time.unwrap().events,
            r.retries,
            r.sequencer.epochs_closed,
            r.sequencer.batch_sum,
            [lat.p50.0, lat.p99.0, lat.p999.0],
            [hold.p50.0, hold.p99.0],
            engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
        )
    };
    let (ra, ea, _) = unaligned_sharded(Scheme::Speculative, true, 0xC8);
    let (rb, eb, _) = unaligned_sharded(Scheme::Speculative, true, 0xC8);
    assert_eq!(
        digest(&ra, &ea),
        digest(&rb, &eb),
        "sequenced run must be bit-deterministic"
    );
    assert_eq!(ra.sequencer.cross_coord_aborts, 0);
    assert!(
        ra.sequencer.batch_max <= u64::from(EPOCH_BATCH),
        "count boundary violated (max {})",
        ra.sequencer.batch_max
    );
}

/// Satellite (c): the serial-equivalence oracle. The shadow replica
/// replays each partition's commit log one transaction at a time, in
/// log order — under sequencing, the order the epoch merge dispatched.
/// Primary == shadow on every partition therefore proves the sequenced
/// (speculative, cross-shard-chained) execution is equivalent to a
/// serial execution of the epoch order; a fragment lost, duplicated, or
/// dispatched out of merge order diverges the fingerprints.
#[test]
fn sequenced_execution_is_serial_equivalent_to_epoch_order() {
    for scheme in [Scheme::Blocking, Scheme::Speculative, Scheme::Occ] {
        let (r, engines, shadow) = unaligned_sharded(scheme, true, 0xA1);
        assert_eq!(shadow.len(), engines.len(), "shadow enabled");
        assert!(r.committed > 500, "{scheme}: throughput collapsed");
        assert_eq!(r.replication.replay_failures, 0, "{scheme}");
        assert_eq!(r.sequencer.cross_coord_aborts, 0, "{scheme}");
        assert_eq!(
            r.sched.cross_coord_waits, 0,
            "{scheme}: sequencing lifts the same-coordinator rule"
        );
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            assert_eq!(
                e.fingerprint(),
                s.fingerprint(),
                "{scheme}: P{i} diverged from the serial replay of its epoch order"
            );
        }
    }
}

/// The locking scheme orders multi-partition transactions client-side
/// (2PC from the client driver; no central dispatch to sequence), so the
/// knob is inert for it: the run must behave exactly as if sequencing
/// were off.
#[test]
fn locking_ignores_the_sequencing_knob() {
    let digest = |r: &RuntimeReport<MicroEngine>, engines: &[MicroEngine]| {
        (
            r.committed,
            r.virtual_time.unwrap().events,
            engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
        )
    };
    let (on, eon, _) = unaligned_sharded(Scheme::Locking, true, 0xB2);
    let (off, eoff, _) = unaligned_sharded(Scheme::Locking, false, 0xB2);
    assert_eq!(on.sequencer.epochs_closed, 0, "locking never sequences");
    assert_eq!(
        digest(&on, &eon),
        digest(&off, &eoff),
        "the sequencing knob must be invisible to the locking scheme"
    );
}

/// Satellite (c): failover mid-epoch. A primary dies while epochs are in
/// flight; the promoted backup starts from a fresh (unsynced) epoch gate,
/// discards stale logs from the old membership era, and the shards bounce
/// their buffered (un-dispatched) invocations back to the clients as
/// retryable aborts — so every unclosed epoch's transactions are retried
/// in the new era and no acknowledged commit is lost (promoted replica ==
/// recovered replica == serial replay of its log).
#[test]
fn failover_mid_epoch_retries_unclosed_work_without_losing_commits() {
    for scheme in [Scheme::Blocking, Scheme::Speculative] {
        let run_once = || {
            let micro = MicroConfig {
                partitions: 4,
                clients: 48,
                mp_fraction: 0.5,
                abort_prob: 0.05,
                affinity_groups: 1,
                seed: 0xF8,
                ..Default::default()
            };
            let system = SystemConfig::new(scheme)
                .with_partitions(4)
                .with_clients(48)
                .with_seed(0xF8)
                .with_coordinators(2)
                .with_sequencing(true);
            let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
                .with_window(Nanos::from_millis(20), Nanos::from_millis(150))
                .with_failure(FailurePlan {
                    partition: PartitionId(1),
                    at: FailAt::Time(Nanos::from_millis(50)),
                    rejoin_delay: Nanos::from_millis(30),
                });
            let builder = MicroWorkload::new(micro);
            let report = run(cfg, MicroWorkload::new(micro), move |p| {
                builder.build_engine(p)
            });
            let (engines, replicas) = (&report.engines, &report.backups);
            assert!(!replicas.is_empty(), "failover implies replicas");
            (
                report.committed,
                report.retries,
                report.replication,
                report.sequencer.clone(),
                engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
                replicas.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
            )
        };
        let (committed, retries, repl, seq, primaries, replicas) = run_once();
        assert!(committed > 500, "{scheme}: throughput collapsed");
        assert!(
            retries > 0,
            "{scheme}: the kill must bounce the unclosed epoch's txns for retry"
        );
        assert_eq!(repl.promotions, 1, "{scheme}");
        assert_eq!(repl.recoveries, 1, "{scheme}");
        assert_eq!(repl.replay_failures, 0, "{scheme}");
        assert!(seq.epochs_closed > 0, "{scheme}");
        // No acked commit lost: the recovered node replays to exactly the
        // promoted primary's state on every group.
        for (g, (p, r)) in primaries.iter().zip(replicas.iter()).enumerate() {
            assert_eq!(p, r, "{scheme}: group {g} diverged across the failover");
        }
        // Mid-epoch failover is the one legal source of discarded logs /
        // passthrough admissions — and still never a CrossCoordinator
        // abort (the bounced invocations carry PartitionFailed).
        assert_eq!(seq.cross_coord_aborts, 0, "{scheme}");
        // Deterministic, like every other failover scenario.
        let again = run_once();
        assert_eq!(
            (committed, retries, primaries, replicas),
            (again.0, again.1, again.4, again.5),
            "{scheme}: mid-epoch failover must be bit-deterministic"
        );
    }
}

/// The golden rows with sequencing on: blocking, speculation and OCC on 4
/// partitions and 2 sequenced coordinator shards (32 clients, 40 %
/// multi-partition) reproduce their counts, fingerprints, latency
/// quantiles, epoch stats and hold-time quantiles, with no
/// `CrossCoordinator` abort and every shadow equal to its primary. A
/// change means sequencing semantics moved, not just speed.
#[test]
fn golden_fixed_seed_with_sequencing_on() {
    goldens::assert_reproduced(&[
        "micro/blocking/p4/r1/d0/sh2/seq1/ad0/kill0",
        "micro/speculation/p4/r1/d0/sh2/seq1/ad0/kill0",
        "micro/occ/p4/r1/d0/sh2/seq1/ad0/kill0",
    ]);
}

/// SP traffic never touches the sequencer: at `mp_fraction = 0` the knob
/// must not change committed state, count, or a single latency quantile.
/// (`events_processed` is deliberately not compared: the off baseline
/// arms the cross-shard expiry timers sequencing replaces, and those
/// timer events are bookkeeping, not schedule.)
#[test]
fn single_partition_traffic_bypasses_the_sequencer() {
    let run_sp = |sequencing: bool| {
        let micro = MicroConfig {
            partitions: 4,
            clients: 64,
            mp_fraction: 0.0,
            seed: 0x51,
            ..Default::default()
        };
        let system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(4)
            .with_clients(64)
            .with_seed(0x51)
            .with_coordinators(4)
            .with_sequencing(sequencing);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
        let builder = MicroWorkload::new(micro);
        let r = run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        let lat = r.latency();
        (
            r.committed,
            [lat.p50.0, lat.p99.0, lat.p999.0],
            r.engines
                .iter()
                .map(|e| e.fingerprint())
                .collect::<Vec<_>>(),
        )
    };
    let off = run_sp(false);
    let on = run_sp(true);
    assert_eq!(off, on, "SP-only traffic must be unaffected by sequencing");
}
