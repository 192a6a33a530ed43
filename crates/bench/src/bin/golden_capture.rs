//! Prints the golden determinism values asserted by
//! `crates/runtime/tests/determinism.rs::golden_*` and (sequencing-on
//! scenario) `crates/runtime/tests/sequencing.rs::golden_*`. The scenarios
//! below must stay in lockstep with those tests' — if you change either,
//! change both and re-capture. For each scheme it prints the
//! committed/aborted/retry counts and the final primary + shadow replica
//! fingerprints of a fixed-seed run. Captured on the naive (pre-fast-path)
//! build; the optimized build must reproduce them bit-for-bit.

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};

fn main() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let micro = MicroConfig {
            mp_fraction: 0.3,
            abort_prob: 0.05,
            conflict_prob: 0.2,
            clients: 24,
            seed: 0xD5,
            ..Default::default()
        };
        let system = SystemConfig::new(scheme)
            .with_partitions(2)
            .with_clients(24)
            .with_seed(0xD5);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
        let builder = MicroWorkload::new(micro);
        let r = run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        let fps: Vec<u64> = r.engines.iter().map(|e| e.fingerprint()).collect();
        let sfps: Vec<u64> = r.backups.iter().map(|e| e.fingerprint()).collect();
        let lat = r.latency();
        println!(
            "({:?}, Golden {{ committed: {}, user_aborts: {}, retries: {}, committed_mp: {}, fingerprints: [{:#018x}, {:#018x}], latency_ns: [{}, {}, {}] }}),",
            scheme,
            r.committed,
            r.user_aborts,
            r.retries,
            r.committed_mp,
            fps[0],
            fps[1],
            lat.p50.0,
            lat.p99.0,
            lat.p999.0
        );
        assert_eq!(fps, sfps, "{scheme}: primary and shadow must agree");
    }

    // Sequencing-on golden (sequencing.rs::golden_fixed_seed_with_sequencing_on):
    // 4 partitions, 2 shards, unaligned MP traffic.
    for scheme in [Scheme::Blocking, Scheme::Speculative, Scheme::Occ] {
        let micro = MicroConfig {
            partitions: 4,
            mp_fraction: 0.4,
            abort_prob: 0.05,
            conflict_prob: 0.2,
            clients: 32,
            seed: 0xE8,
            ..Default::default()
        };
        let system = SystemConfig::new(scheme)
            .with_partitions(4)
            .with_clients(32)
            .with_seed(0xE8)
            .with_coordinators(2)
            .with_sequencing(true);
        let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
            .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
        let builder = MicroWorkload::new(micro);
        let r = run(cfg, MicroWorkload::new(micro), move |p| {
            builder.build_engine(p)
        });
        let fps: Vec<u64> = r.engines.iter().map(|e| e.fingerprint()).collect();
        let sfps: Vec<u64> = r.backups.iter().map(|e| e.fingerprint()).collect();
        let lat = r.latency();
        let hold = r.sequencer.seq_hold.summary();
        println!(
            "({:?}, SeqGolden {{ committed: {}, user_aborts: {}, retries: {}, committed_mp: {}, \
             fingerprints: [{:#018x}, {:#018x}, {:#018x}, {:#018x}], latency_ns: [{}, {}, {}], \
             epochs_closed: {}, batch_sum: {}, batch_max: {}, hold_ns: [{}, {}] }}),",
            scheme,
            r.committed,
            r.user_aborts,
            r.retries,
            r.committed_mp,
            fps[0],
            fps[1],
            fps[2],
            fps[3],
            lat.p50.0,
            lat.p99.0,
            lat.p999.0,
            r.sequencer.epochs_closed,
            r.sequencer.batch_sum,
            r.sequencer.batch_max,
            hold.p50.0,
            hold.p99.0
        );
        assert_eq!(fps, sfps, "{scheme}: primary and shadow must agree");
    }
}
