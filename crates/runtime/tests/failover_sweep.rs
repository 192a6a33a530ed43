//! Failover sweep — the crash sweep's sibling. Virtual time makes "kill at
//! every point" cheap, so instead of one kill per scenario (what
//! `failover.rs` can afford on real threads) this walks the kill across
//! the whole run — by time, and by the production count trigger
//! (`FailAt::Commits`) — for every scheme, one and two coordinator
//! shards, sequencing off and on, at 30 % and 100 % multi-partition — and
//! the actors it kills are the production ones: `Promote`, the `Promoted`
//! routing flip, the `RoutingApplied` fence, in-doubt re-delivery,
//! `Rejoin` → `FetchState` → `Snapshot`.
//!
//! A shard saturated at 100 % multi-partition applies its `RoutingUpdate`
//! late on its own busy clock, long after the routing table flipped: the
//! scheduling delay the PR 15 deadlock needed, from a seed instead of a
//! soak loop.

use hcc_common::{FailAt, FailurePlan, Nanos, PartitionId, Scheme, SequencingConfig, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};

const WARMUP: Nanos = Nanos(500_000);
const MEASURE: Nanos = Nanos(4_000_000);
/// Kill times: every 100 µs from 0.3 ms to 4.3 ms (41 points) — before the
/// window opens, all through it, and into the drain.
fn kill_times() -> impl Iterator<Item = Nanos> {
    (3..=43).map(|i| Nanos(i * 100_000))
}

/// Kill counts: the primary dies right after shipping its first commit
/// record, and its tenth, well inside the window.
const KILL_COUNTS: [u64; 2] = [1, 10];

/// One kill → promote → recover run; panics unless it drains (the driver's
/// own checks: heap empties, schedulers idle, no commit left in doubt, the
/// recovery finished) and converges.
fn kill_at(scheme: Scheme, shards: u32, sequenced: bool, mp: f64, at: FailAt) {
    let point = format!("{scheme} shards={shards} seq={sequenced} mp={mp} kill@{at:?}");
    eprintln!("POINT {point}");
    let micro = MicroConfig {
        partitions: 2,
        clients: 12,
        mp_fraction: mp,
        abort_prob: 0.05,
        seed: 0x5EE9,
        ..Default::default()
    };
    let mut system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(12)
        .with_seed(0x5EE9)
        .with_replication(2)
        .with_coordinators(shards);
    if sequenced {
        system = system.with_sequencing(SequencingConfig::Epoch { batch: 64 });
    }
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(WARMUP, MEASURE)
        .with_failure(FailurePlan {
            partition: PartitionId(1),
            at,
            rejoin_delay: Nanos::from_micros(400),
        });
    let builder = MicroWorkload::new(micro);
    let report = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    let (engines, backups) = (&report.engines, &report.backups);
    let repl = &report.replication;
    assert_eq!(repl.promotions, 1, "{point}");
    assert_eq!(repl.recoveries, 1, "{point}");
    assert_eq!(repl.replay_failures, 0, "{point}");
    // (Not `report.committed`: at 100 % multi-partition an early kill sets
    // off a squash cascade down the whole speculation chain that can
    // outlast this short window.)
    assert!(report.sched.committed > 0, "{point}: nothing committed");
    assert_eq!(backups.len(), engines.len(), "{point}");
    for (g, (p, b)) in engines.iter().zip(backups).enumerate() {
        assert_eq!(
            p.fingerprint(),
            b.fingerprint(),
            "{point}: group {g} backup diverged from its primary"
        );
        assert_eq!(p.live_undo_buffers(), 0, "{point}: group {g}");
    }
}

#[test]
fn kill_at_every_point_drains_and_converges() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        for shards in [1, 2] {
            // Locking coordinates at the client: the sequencer never sees it.
            for sequenced in [false, true] {
                if sequenced && scheme == Scheme::Locking {
                    continue;
                }
                for mp in [0.3, 1.0] {
                    for at in kill_times() {
                        kill_at(scheme, shards, sequenced, mp, FailAt::Time(at));
                    }
                    for k in KILL_COUNTS {
                        kill_at(scheme, shards, sequenced, mp, FailAt::Commits(k));
                    }
                }
            }
        }
    }
}
