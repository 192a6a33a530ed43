//! Crash-point nemesis sweep for the durable command log (paper §3.3 +
//! group commit): kill the whole partition group at *every* commit index
//! k, recover each partition from its surviving log image alone, and prove
//! against a serial oracle that the recovered state is exactly the replay
//! of the longest durable prefix — no acked commit lost, nothing beyond
//! the durable watermark resurrected.
//!
//! The sweep is deterministic: the sim's virtual clock makes the k-th
//! appended commit record a pure function of (config, seed), so every run
//! of this test exercises the same crash points.

use hcc_common::{
    ClientId, CommitRecord, DurabilityConfig, FailAt, FailurePlan, FxHashMap, Nanos, PartitionId,
    RetryConfig, Scheme, SystemConfig, TxnId,
};
use hcc_core::{recover_partition, ReplicaCore, Request, RequestGenerator};
use hcc_runtime::sim::{CrashHarvest, Simulation};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_storage::FaultMode;
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroFragment, MicroOutput, MicroWorkload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Blocking,
    Scheme::Speculative,
    Scheme::Locking,
    Scheme::Occ,
];

fn micro(clients: u32) -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xC4A5,
        ..Default::default()
    }
}

fn sim(scheme: Scheme, clients: u32, dur: DurabilityConfig) -> Simulation<MicroWorkload> {
    let mc = micro(clients);
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xC4A5)
        .with_durability(dur);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_micros(500), Nanos::from_millis(2));
    let builder = MicroWorkload::new(mc);
    Simulation::new(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    })
}

/// Serial oracle: replay `records` in order onto a birth-state engine.
fn serial_fingerprint(p: PartitionId, records: &[CommitRecord<MicroFragment>]) -> u64 {
    let mc = micro(1);
    let mut engine = MicroWorkload::new(mc).build_engine(p);
    let mut core = ReplicaCore::new();
    for r in records {
        core.apply(&mut engine, r).expect("serial oracle replay");
    }
    engine.fingerprint()
}

/// The recovery oracle for one crash harvest: recovery from the log image
/// alone must reproduce exactly the serial replay of the durable prefix,
/// and every result acked to a client pre-crash must be inside it.
fn check_harvest(scheme: Scheme, k: u64, h: &CrashHarvest<MicroEngine>, expect_torn: bool) {
    let mut saw_torn = false;
    for (pi, image) in h.images.iter().enumerate() {
        let p = PartitionId(pi as u32);
        let mc = micro(1);
        let snapshot = MicroWorkload::new(mc).build_engine(p);
        let out = recover_partition(snapshot, 0, image)
            .unwrap_or_else(|e| panic!("{scheme} k={k}: P{pi} recovery failed: {e}"));
        // The recovered log position is exactly the durable watermark:
        // nothing durable lost, nothing beyond it resurrected.
        assert_eq!(
            out.records_applied, h.durable[pi],
            "{scheme} k={k}: P{pi} replayed a different count than was durable"
        );
        assert_eq!(
            out.replica.watermark(),
            h.durable[pi],
            "{scheme} k={k}: P{pi}"
        );
        let durable_prefix = &h.history[pi][..h.durable[pi] as usize];
        assert_eq!(
            out.engine.fingerprint(),
            serial_fingerprint(p, durable_prefix),
            "{scheme} k={k}: P{pi} recovered state != serial replay of durable prefix"
        );
        saw_torn |= out.torn_tail;
    }
    if !expect_torn {
        assert!(
            !saw_torn,
            "{scheme} k={k}: torn tail without the torn-tail fault"
        );
    }

    // Every commit acked to a client pre-crash must be durable at every
    // partition it touched — the group-commit gate's whole promise.
    let mut positions: FxHashMap<TxnId, Vec<(usize, u64)>> = FxHashMap::default();
    for (pi, recs) in h.history.iter().enumerate() {
        for r in recs {
            positions.entry(r.txn).or_default().push((pi, r.seq));
        }
    }
    for txn in &h.acked {
        let at = positions
            .get(txn)
            .unwrap_or_else(|| panic!("{scheme} k={k}: acked {txn:?} has no commit record"));
        for (pi, seq) in at {
            assert!(
                *seq <= h.durable[*pi],
                "{scheme} k={k}: acked {txn:?} not durable at P{pi} (seq {seq} > {})",
                h.durable[*pi]
            );
        }
    }
}

/// The crash indices a sweep visits: every index when the log is short,
/// dense head plus strided tail when it is long (the head is where the
/// group-commit edge cases live: empty logs, first unsynced batch).
fn sweep_points(total: u64) -> Vec<u64> {
    let mut ks: Vec<u64> = (1..=total.min(24)).collect();
    if total > 24 {
        let stride = (total / 24).max(1);
        ks.extend((24..=total).step_by(stride as usize));
        ks.push(total);
    }
    ks.dedup();
    ks
}

#[test]
fn crash_at_every_commit_index_recovers_durable_prefix() {
    for scheme in SCHEMES {
        // Learn the run's total commit count, then sweep crash points.
        let full = sim(scheme, 12, DurabilityConfig::default()).run_to_crash(u64::MAX);
        assert!(!full.crashed, "{scheme}: full run must drain");
        assert!(
            full.appended > 30,
            "{scheme}: run too short to sweep ({} records)",
            full.appended
        );
        // The drained run is the k→∞ endpoint of the sweep: check it too.
        check_harvest(scheme, u64::MAX, &full, false);
        assert!(
            !full.acked.is_empty(),
            "{scheme}: a drained run must have acked commits"
        );
        for k in sweep_points(full.appended) {
            let h = sim(scheme, 12, DurabilityConfig::default()).run_to_crash(k);
            assert!(h.crashed, "{scheme}: crash point {k} not reached");
            check_harvest(scheme, k, &h, false);
        }
    }
}

/// Same sweep with the torn-tail fault armed: the crash image ends in a
/// half-written frame whenever unsynced records existed, and recovery
/// must silently discard it (never fail, never apply a partial record).
#[test]
fn torn_tail_is_discarded_at_every_crash_point() {
    let scheme = Scheme::Speculative;
    let full = sim(scheme, 12, DurabilityConfig::default()).run_to_crash(u64::MAX);
    let mut torn_seen = 0u64;
    for k in sweep_points(full.appended) {
        let mut s = sim(scheme, 12, DurabilityConfig::default());
        for p in 0..2 {
            s.set_log_fault(
                PartitionId(p),
                FaultMode {
                    torn_tail: true,
                    ..FaultMode::default()
                },
            );
        }
        let h = s.run_to_crash(k);
        assert!(h.crashed, "crash point {k} not reached");
        check_harvest(scheme, k, &h, true);
        for (pi, image) in h.images.iter().enumerate() {
            let p = PartitionId(pi as u32);
            let mc = micro(1);
            let out = recover_partition(MicroWorkload::new(mc).build_engine(p), 0, image).unwrap();
            torn_seen += u64::from(out.torn_tail);
        }
    }
    // A sweep over every commit boundary must hit unsynced batches.
    assert!(torn_seen > 0, "sweep never produced a torn tail");
}

/// The crash harness is bit-deterministic: same config, same seed, same
/// crash index → identical images, watermarks, and ack sets.
#[test]
fn crash_harvest_is_deterministic() {
    for scheme in [Scheme::Speculative, Scheme::Locking] {
        let a = sim(scheme, 12, DurabilityConfig::default()).run_to_crash(40);
        let b = sim(scheme, 12, DurabilityConfig::default()).run_to_crash(40);
        assert_eq!(a.crashed, b.crashed, "{scheme}");
        assert_eq!(a.images, b.images, "{scheme}: crash images diverged");
        assert_eq!(a.durable, b.durable, "{scheme}");
        assert_eq!(a.acked, b.acked, "{scheme}");
        assert_eq!(a.appended, b.appended, "{scheme}");
    }
}

/// Group commit is self-clocked: a commit that finds no sync in flight is
/// synced at once, so a lone closed-loop client waits for its request to
/// commit, then for one sync, and not a nanosecond of batching delay. (The
/// gate is the production one, at the node that emits the result, so the
/// hop back to the client follows the sync; the old simulator gated the
/// result where it was delivered and let the two overlap.)
#[test]
fn lone_commit_waits_for_one_sync_and_nothing_else() {
    let point = |dur: Option<DurabilityConfig>| {
        let mc = MicroConfig {
            mp_fraction: 0.0,
            abort_prob: 0.0,
            ..micro(1)
        };
        let mut system = SystemConfig::new(Scheme::Speculative)
            .with_partitions(2)
            .with_clients(1)
            .with_seed(0xC4A5);
        system.durability = dur;
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(1), Nanos::from_millis(20));
        let builder = MicroWorkload::new(mc);
        run(cfg, MicroWorkload::new(mc), move |p| {
            builder.build_engine(p)
        })
    };
    let dur = DurabilityConfig::default();
    let hop_back = SystemConfig::new(Scheme::Speculative).network.one_way;
    assert!(dur.sync_latency > hop_back);
    let (off, on) = (point(None), point(Some(dur)));
    assert!(off.committed > 50 && on.committed > 50);
    // Every transaction of the lone client costs the same, so the mean is
    // each one's latency, to the nanosecond.
    let (off_latency, on_latency) = (&off.clients.latency, &on.clients.latency);
    assert_eq!(off_latency.quantile(0.0), off_latency.quantile(1.0));
    assert_eq!(on_latency.quantile(0.0), on_latency.quantile(1.0));
    let committed_after = off_latency.mean() - hop_back;
    assert_eq!(
        on_latency.mean(),
        committed_after + dur.sync_latency + hop_back
    );
    // One sync per record, each waited for by exactly its own result.
    assert_eq!(on.durability.syncs, on.durability.records_appended);
    assert_eq!(on.durability.results_held, on.durability.records_appended);
}

/// One rule for everything a replicated, logging primary answers for: a
/// single-partition result and a 2PC participant's decision ack (which
/// gates the multi-partition result, at the central coordinator under
/// speculation and at the client's own driver under locking) both leave
/// once the record is on the backup *and* durable. A sync shorter than the
/// backup's round trip hides behind it; a longer one adds exactly its
/// excess.
#[test]
fn lone_commit_waits_for_its_backup_and_its_sync() {
    let one_way = SystemConfig::new(Scheme::Speculative).network.one_way;
    let round_trip = one_way + one_way;
    for scheme in [Scheme::Speculative, Scheme::Locking] {
        for mp_fraction in [0.0, 1.0] {
            let latency = |sync_us: u64| {
                let mc = MicroConfig {
                    mp_fraction,
                    abort_prob: 0.0,
                    ..micro(1)
                };
                let dur = DurabilityConfig {
                    sync_latency: Nanos::from_micros(sync_us),
                    ..DurabilityConfig::default()
                };
                let system = SystemConfig::new(scheme)
                    .with_partitions(2)
                    .with_clients(1)
                    .with_seed(0xC4A5)
                    .with_replication(2)
                    .with_durability(dur);
                let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
                    .with_window(Nanos::from_millis(1), Nanos::from_millis(20));
                let builder = MicroWorkload::new(mc);
                let r = run(cfg, MicroWorkload::new(mc), move |p| {
                    builder.build_engine(p)
                });
                assert!(r.committed > 20, "{scheme} mp {mp_fraction}");
                // Every transaction of the lone client costs the same.
                let l = &r.clients.latency;
                assert_eq!(
                    l.quantile(0.0),
                    l.quantile(1.0),
                    "{scheme} mp {mp_fraction}"
                );
                l.mean()
            };
            let (short, under, long) = (latency(1), latency(30), latency(100));
            assert!(Nanos::from_micros(30) < round_trip);
            assert_eq!(
                short, under,
                "{scheme} mp {mp_fraction}: the backup decides"
            );
            assert_eq!(
                long,
                short + Nanos::from_micros(100) - round_trip,
                "{scheme} mp {mp_fraction}: the sync decides"
            );
        }
    }
}

/// A primary that crashes keeps its log counters in the report: every
/// record shipped to the backups was appended to some primary's log, the
/// dead one's included.
#[test]
fn crashed_primary_keeps_its_log_counters() {
    let mc = MicroConfig {
        partitions: 2,
        clients: 16,
        mp_fraction: 0.3,
        abort_prob: 0.0,
        conflict_prob: 0.0,
        seed: 5,
        ..Default::default()
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(16)
        .with_seed(5)
        .with_replication(3)
        .with_durability(DurabilityConfig::default());
    let plan = FailurePlan {
        partition: PartitionId(1),
        at: FailAt::Commits(100),
        rejoin_delay: Nanos::ZERO,
    };
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Sim { shadow: false }, 40)
        .with_failure(plan);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(r.replication.promotions, 1);
    assert!(r.replication.records_shipped > 100);
    assert_eq!(r.durability.records_appended, r.replication.records_shipped);
}

/// Command logging must stay cheap (the paper's premise): syncs are off
/// the execution critical path — only result *release* waits — so group
/// commit keeps well over half the memory-only throughput under every
/// scheme.
#[test]
fn group_commit_keeps_most_of_the_memory_only_throughput() {
    for scheme in SCHEMES {
        let point = |dur: Option<DurabilityConfig>| {
            let mc = micro(24);
            let mut system = SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(24)
                .with_seed(0xC4A5);
            system.durability = dur;
            let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
                .with_window(Nanos::from_millis(30), Nanos::from_millis(150));
            let builder = MicroWorkload::new(mc);
            run(cfg, MicroWorkload::new(mc), move |p| {
                builder.build_engine(p)
            })
        };
        let off = point(None);
        let on = point(Some(DurabilityConfig::default()));
        assert!(on.durability.syncs > 0, "{scheme}: no syncs recorded");
        assert!(
            on.throughput_tps > 0.5 * off.throughput_tps,
            "{scheme}: group commit halved throughput ({:.0} vs {:.0} tps)",
            on.throughput_tps,
            off.throughput_tps
        );
    }
}

/// A stalled log device must not wedge the commit chain: past the sync
/// deadline the partition aborts the held batch with the retryable
/// `LogStalled`, clients back off and retry, and the run drains.
#[test]
fn stalled_log_aborts_retryably_and_drains() {
    for scheme in [Scheme::Speculative, Scheme::Blocking] {
        let mc = micro(12);
        let system = SystemConfig::new(scheme)
            .with_partitions(2)
            .with_clients(12)
            .with_seed(0xC4A5)
            .with_durability(
                DurabilityConfig::default().with_sync_deadline(Nanos::from_micros(800)),
            )
            .with_retry(RetryConfig::default().with_max_attempts(3));
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
            .with_window(Nanos::from_millis(2), Nanos::from_millis(8));
        let builder = MicroWorkload::new(mc);
        let mut s = Simulation::new(cfg, MicroWorkload::new(mc), move |p| {
            builder.build_engine(p)
        });
        // P0's device dies after 3 successful syncs; P1 stays healthy.
        s.set_log_fault(
            PartitionId(0),
            FaultMode {
                stall_syncs_after: Some(3),
                ..FaultMode::default()
            },
        );
        let (report, _) = s.run();
        assert!(
            report.durability.stalled_aborts > 0,
            "{scheme}: stall guard never fired"
        );
        assert!(
            report.clients.backoff_retries > 0,
            "{scheme}: LogStalled aborts must be retried with backoff"
        );
        assert!(
            report.clients.retry_exhausted > 0,
            "{scheme}: a permanently stalled log must exhaust retries"
        );
        // The healthy partition kept committing and syncing throughout.
        assert!(report.committed > 0, "{scheme}");
        assert!(report.durability.syncs > 3, "{scheme}");
    }
}

/// What a client was told, for the append-failure case below: the
/// partitions each finally committed transaction touched.
struct Committed {
    inner: MicroWorkload,
    /// Per client: the partitions of its request in flight.
    touches: Vec<Vec<usize>>,
    committed: Vec<(TxnId, Vec<usize>)>,
}

impl RequestGenerator for Committed {
    type Engine = MicroEngine;

    fn next_request(&mut self, c: ClientId) -> Request<MicroFragment, MicroOutput> {
        let request = self.inner.next_request(c);
        self.touches[c.as_usize()] = match &request {
            Request::SinglePartition { partition, .. } => vec![partition.as_usize()],
            // The microbenchmark's multi-partition transactions use both
            // of its two partitions.
            Request::MultiPartition { .. } => vec![0, 1],
        };
        request
    }

    fn on_result(&mut self, c: ClientId, txn: TxnId, committed: bool) {
        if committed {
            let touched = self.touches[c.as_usize()].clone();
            self.committed.push((txn, touched));
        }
        self.inner.on_result(c, txn, committed);
    }
}

/// Twelve clients of `micro(12)` on two durable partitions, probed for what
/// they are told, with P0's log device failing as `fault` says. Retries
/// stop at three attempts, so a permanently broken device still drains.
fn probed(scheme: Scheme, durability: DurabilityConfig, fault: FaultMode) -> Simulation<Committed> {
    let mc = micro(12);
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(12)
        .with_seed(0xC4A5)
        .with_durability(durability)
        .with_retry(RetryConfig::default().with_max_attempts(3));
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(1), Nanos::from_millis(6));
    let builder = MicroWorkload::new(mc);
    let probe = Committed {
        inner: MicroWorkload::new(mc),
        touches: vec![Vec::new(); 12],
        committed: Vec::new(),
    };
    let mut s = Simulation::new(cfg, probe, move |p| builder.build_engine(p));
    s.set_log_fault(PartitionId(0), fault);
    s
}

/// An append that fails after the engine committed has one answer, the
/// strict one: the record is not in the log, so no client reads
/// `Committed` — a single-partition result bounces at the partition, a 2PC
/// participant's ack says "not logged" and the coordinator (central shard,
/// or the locking client's own driver) releases the held result as
/// `LogStalled`. The 2PC chain is not wedged, every client reaches a final
/// outcome after retrying, and the run drains.
#[test]
fn failed_append_never_reads_as_committed() {
    const GOOD_APPENDS: u64 = 40;
    for scheme in SCHEMES {
        // P0's device rejects every write after the first forty.
        let fault = FaultMode {
            fail_appends_after: Some(GOOD_APPENDS),
            ..FaultMode::default()
        };
        let build = || probed(scheme, DurabilityConfig::default(), fault);
        // Deterministic, so the drained run and the harvested logs are one
        // run seen twice: once for what the clients were told, once for
        // what the logs hold.
        let (report, told) = build().run();
        let logs = build().run_to_crash(u64::MAX);
        assert!(!logs.crashed, "{scheme}: the run must drain");
        assert_eq!(logs.history[0].len() as u64, GOOD_APPENDS, "{scheme}");
        assert!(
            logs.history[1].len() as u64 > GOOD_APPENDS,
            "{scheme}: the healthy partition keeps logging"
        );
        assert!(!told.committed.is_empty(), "{scheme}");
        for (txn, touched) in &told.committed {
            for &p in touched {
                assert!(
                    logs.history[p].iter().any(|r| r.txn == *txn),
                    "{scheme}: a client read Committed for {txn:?}, which P{p}'s log does not hold"
                );
            }
        }
        // Everything that touched P0 after the fault bounced, was retried
        // with backoff, and ended as a final (exhausted) abort.
        assert!(report.durability.stalled_aborts > 0, "{scheme}");
        assert!(report.clients.backoff_retries > 0, "{scheme}");
        assert!(report.clients.retry_exhausted > 0, "{scheme}");
    }
}

/// The stall guard's twin of the test above: when P0's device stops
/// syncing, the guard gives up on the batch in flight, and what waited on
/// it leaves without durability. A single-partition result bounces with
/// `LogStalled`; a 2PC participant's decision ack, whether it was parked
/// when the guard fired or arrives later for a record in the abandoned
/// batch, must say "not logged", so no client reads `Committed` for a
/// transaction whose record is not in the durable log of every partition
/// it touched.
#[test]
fn stalled_sync_never_reads_as_committed() {
    for scheme in SCHEMES {
        let durability = DurabilityConfig::default().with_sync_deadline(Nanos::from_micros(800));
        // P0's device stalls every sync after its first three.
        let fault = FaultMode {
            stall_syncs_after: Some(3),
            ..FaultMode::default()
        };
        let build = || probed(scheme, durability, fault);
        let (report, told) = build().run();
        let logs = build().run_to_crash(u64::MAX);
        assert!(!logs.crashed, "{scheme}: the run must drain");
        assert!(
            logs.history[0].len() as u64 > logs.durable[0],
            "{scheme}: P0 appended records it never made durable"
        );
        assert!(!told.committed.is_empty(), "{scheme}");
        for (txn, touched) in &told.committed {
            for &p in touched {
                let durable = &logs.history[p][..logs.durable[p] as usize];
                assert!(
                    durable.iter().any(|r| r.txn == *txn),
                    "{scheme}: a client read Committed for {txn:?}, which P{p}'s durable log does not hold"
                );
            }
        }
        assert!(report.durability.stalled_aborts > 0, "{scheme}");
        assert!(report.clients.retry_exhausted > 0, "{scheme}");
    }
}
