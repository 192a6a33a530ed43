//! Cross-driver equivalence: the simulator and the reactor are two drivers
//! for the *same* state machines, so a fixed-work run (every client drives
//! exactly K seed-derived requests to a final outcome) must leave
//! bit-identical committed state on every partition, regardless of how
//! the host interleaved the actors. The simulator is the reference: its
//! run is a pure function of the seed.
//!
//! Why this is a sound check: the microbenchmark's requests are generated
//! from per-client RNG streams (interleaving-independent), its committed
//! effects are key-disjoint increments (commutative, so the final store
//! does not depend on commit order), scheduling aborts are retried until
//! the request reaches a final outcome, and user aborts roll back to the
//! pre-image. The store fingerprint is an order-independent XOR over
//! entries. Any divergence therefore means a backend *lost, duplicated,
//! or misapplied* a transaction — exactly the bug class a runtime rewrite
//! can introduce.
//!
//! TPC-C is deliberately absent here: its committed state is
//! schedule-dependent (district `next_o_id` assignment and threshold-based
//! stock replenishment make commit *order* observable), so no two live
//! runs — even two on one worker — are bit-comparable. The multiplexed
//! backend's TPC-C coverage is the consistency checks in
//! `hcc-runtime`'s `tpcc_tests` and the 512-client soak below.

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_runtime::{run, BackendChoice, RuntimeConfig};
use hcc_storage::tpcc::consistency;
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};

/// The reference driver.
const SIM: BackendChoice = BackendChoice::Sim { shadow: false };

/// Fixed-work fingerprints for one scheme on one backend.
fn fingerprints(
    scheme: Scheme,
    clients: u32,
    requests: u64,
    backend: BackendChoice,
) -> (Vec<u64>, u64, u64) {
    fingerprints_sharded(scheme, clients, requests, backend, 1)
}

/// As [`fingerprints`], with `coordinators` shards (clients statically
/// partitioned across them).
fn fingerprints_sharded(
    scheme: Scheme,
    clients: u32,
    requests: u64,
    backend: BackendChoice,
    coordinators: u32,
) -> (Vec<u64>, u64, u64) {
    let mc = MicroConfig {
        partitions: 2,
        clients,
        mp_fraction: 0.25,
        abort_prob: 0.05,
        seed: 0xBEEF,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(clients)
        .with_seed(0xBEEF)
        .with_coordinators(coordinators);
    let cfg = RuntimeConfig::fixed_work(system, backend, requests);
    let builder = MicroWorkload::new(mc);
    let r = run(cfg, MicroWorkload::new(mc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients as u64 * requests,
        "{backend}/{scheme}: wrong amount of work performed"
    );
    for (i, e) in r.engines.iter().enumerate() {
        assert_eq!(
            e.live_undo_buffers(),
            0,
            "{backend}/{scheme}: P{i} leaked undo buffers"
        );
    }
    // Stray decisions (a decision for a transaction the scheduler never
    // saw) are legitimate only around a failover; a healthy run seeing one
    // means a routing or protocol regression.
    assert_eq!(
        r.sched.stray_decisions, 0,
        "{backend}/{scheme}: stray decision in a healthy run"
    );
    (
        r.engines.iter().map(|e| e.fingerprint()).collect(),
        r.clients.committed,
        r.clients.user_aborted,
    )
}

#[test]
fn all_schemes_agree_across_backends() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let sim = fingerprints(scheme, 16, 30, SIM);
        let multiplexed = fingerprints(scheme, 16, 30, BackendChoice::Multiplexed { workers: 4 });
        assert_eq!(
            sim, multiplexed,
            "{scheme}: committed state diverged between backends"
        );
    }
}

/// Worker-count matrix: at every pool size {1, 2, 3, 4, 8} the
/// multiplexed backend must reproduce the simulator's committed
/// state bit-for-bit, for every scheme — scaling the pool up or down
/// (including past the host's core count) changes who runs the actors,
/// never what commits. This is the vertical-scale-up safety contract: a
/// client or partition owned by a different worker, or a coordinator run
/// popped by another worker, must be unobservable in the final state. At
/// 3 workers client homes (`c % 3`) and group homes (`g % 3`) no longer
/// coincide.
#[test]
fn worker_count_matrix_agrees_across_backends() {
    for scheme in [
        Scheme::Blocking,
        Scheme::Speculative,
        Scheme::Locking,
        Scheme::Occ,
    ] {
        let sim = fingerprints(scheme, 16, 25, SIM);
        for workers in [1usize, 2, 3, 4, 8] {
            let multiplexed = fingerprints(scheme, 16, 25, BackendChoice::Multiplexed { workers });
            assert_eq!(
                sim, multiplexed,
                "{scheme}@{workers} workers: committed state diverged from the simulator"
            );
        }
    }
}

/// Coordinator scale-out equivalence: with N ∈ {1, 2, 4} coordinator
/// shards, the simulator and the reactor must still agree
/// bit-for-bit, at 2, 3 and 4 workers (fewer workers than shared actors,
/// and as many) — sharding changes who coordinates, not what commits. The
/// speculative scheme is the interesting one (cross-shard chains at the
/// partitions fall back to held responses); blocking covers the plain 2PC
/// path.
#[test]
fn sharded_coordinators_agree_across_backends() {
    for scheme in [Scheme::Speculative, Scheme::Blocking] {
        for coordinators in [1u32, 2, 4] {
            let sim = fingerprints_sharded(scheme, 16, 25, SIM, coordinators);
            for workers in [2usize, 3, 4] {
                let backend = BackendChoice::Multiplexed { workers };
                let multiplexed = fingerprints_sharded(scheme, 16, 25, backend, coordinators);
                assert_eq!(
                    sim, multiplexed,
                    "{scheme}/N={coordinators}@{workers} workers: committed state diverged \
                     between backends"
                );
            }
        }
    }
}

/// The headline scale case: 512 closed-loop clients on a fixed 4-worker
/// pool, against the simulator — same inputs, same committed state.
#[test]
fn multiplexed_512_clients_matches_sim_bit_for_bit() {
    let sim = fingerprints(Scheme::Speculative, 512, 4, SIM);
    let multiplexed = fingerprints(
        Scheme::Speculative,
        512,
        4,
        BackendChoice::Multiplexed { workers: 4 },
    );
    assert_eq!(sim, multiplexed, "512-client states diverged");
}

/// Fixed work is also reproducible run-to-run *within* the multiplexed
/// backend (the commutativity argument, applied to itself).
#[test]
fn multiplexed_fixed_work_is_reproducible() {
    let a = fingerprints(
        Scheme::Locking,
        16,
        30,
        BackendChoice::Multiplexed { workers: 4 },
    );
    let b = fingerprints(
        Scheme::Locking,
        16,
        30,
        BackendChoice::Multiplexed { workers: 2 },
    );
    assert_eq!(a, b, "worker count must not change committed state");
}

/// TPC-C at 512 closed-loop clients on the 4-worker pool: full mix,
/// consistency conditions must hold on the final state (the
/// schedule-dependent workload's equivalence check — see module docs).
#[test]
fn multiplexed_tpcc_512_clients_stays_consistent() {
    let mut tpcc = TpccConfig::new(4, 2);
    tpcc.scale = hcc_storage::tpcc::TpccScale::tiny();
    let mut system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(512);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::fixed_work(system, BackendChoice::Multiplexed { workers: 4 }, 3);
    let builder = TpccWorkload::new(tpcc);
    let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    assert_eq!(r.clients.committed + r.clients.user_aborted, 512 * 3);
    for (i, e) in r.engines.iter().enumerate() {
        consistency::check(&e.store)
            .unwrap_or_else(|v| panic!("P{i} inconsistent at 512 clients: {:?}", &v[..1]));
        assert_eq!(e.live_undo_buffers(), 0, "P{i}");
    }
}
