//! Partition-failure recovery (paper §3.3): multi-partition transactions
//! use undo buffers and 2PC so that "if the transaction causes one
//! partition to crash ..., other participants are able to recover and
//! continue processing transactions that do not depend on the failed
//! partition."

use hcc_common::{ClientId, FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig, TxnId};
use hcc_core::{OneRound, Request, RequestGenerator};
use hcc_runtime::{BackendChoice, RuntimeConfig, RuntimeReport, Simulation};
use hcc_workloads::micro::{
    concat_outputs, make_key, MicroConfig, MicroEngine, MicroFragment, MicroOp, MicroOutput,
    MicroWorkload,
};
use std::sync::Arc;

/// Clients 0..4 issue single-partition transactions on P0 only; client 5
/// issues two-partition transactions. Tracks outcomes per kind.
struct SplitWorkload {
    committed_sp: u64,
    aborted_mp: u64,
    committed_mp: u64,
    last_kind_mp: std::collections::HashMap<u32, bool>,
}

impl SplitWorkload {
    fn new() -> Self {
        SplitWorkload {
            committed_sp: 0,
            aborted_mp: 0,
            committed_mp: 0,
            last_kind_mp: std::collections::HashMap::new(),
        }
    }
}

impl RequestGenerator for SplitWorkload {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        if client.0 < 5 {
            self.last_kind_mp.insert(client.0, false);
            Request::SinglePartition {
                partition: PartitionId(0),
                fragment: MicroFragment {
                    ops: (0..12)
                        .map(|i| MicroOp::Rmw(make_key(client.0, 0, i)))
                        .collect(),
                    fail: false,
                },
                can_abort: false,
            }
        } else {
            self.last_kind_mp.insert(client.0, true);
            Request::MultiPartition {
                procedure: Box::new(OneRound {
                    fragments: Arc::from([
                        (
                            PartitionId(0),
                            MicroFragment {
                                ops: (0..6)
                                    .map(|i| MicroOp::Rmw(make_key(client.0, 0, i)))
                                    .collect(),
                                fail: false,
                            },
                        ),
                        (
                            PartitionId(1),
                            MicroFragment {
                                ops: (0..6)
                                    .map(|i| MicroOp::Rmw(make_key(client.0, 1, i)))
                                    .collect(),
                                fail: false,
                            },
                        ),
                    ]),
                    finish: concat_outputs,
                }),
                can_abort: false,
            }
        }
    }

    fn on_result(&mut self, client: ClientId, _txn: TxnId, committed: bool) {
        match (self.last_kind_mp.get(&client.0), committed) {
            (Some(true), true) => self.committed_mp += 1,
            (Some(true), false) => self.aborted_mp += 1,
            (Some(false), true) => self.committed_sp += 1,
            _ => {}
        }
    }
}

fn run_split(
    scheme: Scheme,
    fail: Option<Nanos>,
) -> (RuntimeReport<MicroEngine>, SplitWorkload, Vec<MicroEngine>) {
    let mut system = SystemConfig::new(scheme).with_partitions(2).with_clients(6);
    if let Some(at) = fail {
        // The network splits P1 off at `at`; the coordinator expires what
        // stalls behind it after the lock timeout.
        system.network.split = Some((at, PartitionId(1)));
        system.lock_timeout = Nanos::from_millis(2);
    }
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(10), Nanos::from_millis(200));
    let (mut report, workload) =
        Simulation::new(cfg, SplitWorkload::new(), |p| MicroEngine::load(p, 6, 24)).run();
    let engines = std::mem::take(&mut report.engines);
    (report, workload, engines)
}

#[test]
fn surviving_partition_continues_after_peer_crash() {
    for scheme in [Scheme::Blocking, Scheme::Speculative] {
        let (_, control, _) = run_split(scheme, None);
        let fail_at = Nanos::from_millis(40);
        let (report, workload, engines) = run_split(scheme, Some(fail_at));

        // The crash happens ~19% into the run. Were the survivor to stop
        // with its peer, it could commit at most ~19% of the control run's
        // single-partition work; requiring 25% proves it kept processing
        // after the crash — at a degraded rate, since under blocking every
        // new multi-partition transaction stalls the survivor until the
        // coordinator's expiry fires (the cost §3.3 describes: recovery
        // beats blocking forever, but is not free).
        assert!(
            workload.committed_sp as f64 > 0.25 * control.committed_sp as f64,
            "{scheme}: survivor stopped with its peer ({} vs control {})",
            workload.committed_sp,
            control.committed_sp
        );

        // Multi-partition transactions touching the dead partition were
        // aborted by the coordinator's timeout (not stuck forever), and
        // the client kept submitting (each abort is a final result).
        assert!(
            workload.aborted_mp > 10,
            "{scheme}: stalled MP txns must expire ({} aborts)",
            workload.aborted_mp
        );
        assert!(
            workload.committed_mp > 0,
            "{scheme}: MP txns before the crash must have committed"
        );

        // 2PC safety: the surviving partition rolled back every expired
        // transaction — no undo buffers leak.
        assert_eq!(engines[0].live_undo_buffers(), 0, "{scheme}");
        assert!(report.committed > 0);
        // And in the control run, nothing was expired.
        assert_eq!(
            control.aborted_mp, 0,
            "{scheme}: control must not expire txns"
        );
    }
}

/// The replicated kill → promote → recover scenario (§3.3) in virtual
/// time: the primary dies mid-window, its replica takes over in place,
/// and the failed node rejoins from a snapshot ~30 virtual ms later while
/// the group keeps committing. Deterministic: two identical runs produce
/// identical histories, and the rejoined replica must converge with the
/// promoted primary by drain time — for all four schemes.
#[test]
fn sim_kill_promote_recover_converges_and_is_deterministic() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let run_once = || {
            let micro = MicroConfig {
                mp_fraction: 0.2,
                abort_prob: 0.05,
                clients: 24,
                seed: 0xDEAD,
                ..Default::default()
            };
            let system = SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(24)
                .with_seed(0xDEAD);
            let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
                .with_window(Nanos::from_millis(20), Nanos::from_millis(150))
                .with_failure(FailurePlan {
                    partition: PartitionId(1),
                    at: FailAt::Time(Nanos::from_millis(50)),
                    rejoin_delay: Nanos::from_millis(30),
                });
            let builder = MicroWorkload::new(micro);
            let report = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
                builder.build_engine(p)
            });
            let (engines, replicas) = (&report.engines, &report.backups);
            assert!(!replicas.is_empty(), "failover implies replicas");
            (
                report.committed,
                report.retries,
                report.replication,
                engines.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
                replicas.iter().map(|e| e.fingerprint()).collect::<Vec<_>>(),
            )
        };
        let (committed, retries, repl, primaries, replicas) = run_once();
        assert!(
            committed > 500,
            "{scheme}: throughput collapsed: {committed}"
        );
        assert!(
            retries > 0,
            "{scheme}: the kill must bounce at least one in-flight txn"
        );
        assert_eq!(repl.promotions, 1, "{scheme}");
        assert_eq!(repl.recoveries, 1, "{scheme}");
        assert_eq!(
            repl.replay_failures, 0,
            "{scheme}: replicas must replay the commit log cleanly"
        );
        assert!(
            repl.time_to_recover().is_some(),
            "{scheme}: kill/rejoin timestamps recorded"
        );
        for (g, (p, r)) in primaries.iter().zip(replicas.iter()).enumerate() {
            assert_eq!(
                p, r,
                "{scheme}: group {g} recovered replica diverged from its primary"
            );
        }
        // Virtual time: a failover scenario is as deterministic as any
        // other simulation.
        let again = run_once();
        assert_eq!(
            (committed, retries, repl, primaries, replicas),
            again,
            "{scheme}: failover runs must be bit-deterministic"
        );
    }
}
#[test]
fn sim_failover_with_two_round_locking_txns_drains() {
    use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig};
    use hcc_runtime::{BackendChoice, RuntimeConfig};
    use hcc_workloads::micro::{MicroConfig, MicroWorkload};
    for scheme in [Scheme::Locking, Scheme::Blocking, Scheme::Speculative] {
        for seed in [0x2A, 7, 99, 1234, 0xFEED] {
            let micro = MicroConfig {
                mp_fraction: 0.3,
                two_round: true,
                conflict_prob: 0.3,
                clients: 24,
                seed,
                ..Default::default()
            };
            let system = SystemConfig::new(scheme)
                .with_partitions(2)
                .with_clients(24)
                .with_seed(seed);
            let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
                .with_window(Nanos::from_millis(20), Nanos::from_millis(120))
                .with_failure(FailurePlan {
                    partition: PartitionId(1),
                    at: FailAt::Time(Nanos::from_millis(50)),
                    rejoin_delay: Nanos::from_millis(20),
                });
            let builder = MicroWorkload::new(micro);
            let report = hcc_runtime::run(cfg, MicroWorkload::new(micro), move |p| {
                builder.build_engine(p)
            });
            let (engines, replicas) = (&report.engines, &report.backups);
            assert!(!replicas.is_empty());
            assert_eq!(report.replication.replay_failures, 0, "{scheme}");
            for (g, (p, r)) in engines.iter().zip(replicas.iter()).enumerate() {
                assert_eq!(
                    p.fingerprint(),
                    r.fingerprint(),
                    "{scheme}: group {g} diverged"
                );
            }
        }
    }
}
