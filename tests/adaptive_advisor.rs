//! The §5.7 adaptive policy, validated empirically: feed the advisor the
//! statistics a query executor would record, and check its pick against
//! the scheme that actually wins on the simulator for that workload.

use hcc::model::{fastest, recommend, ModelParams, WorkloadProfile};
use hcc::prelude::*;
use hcc::workloads::micro::{MicroConfig, MicroWorkload};

fn throughput(scheme: Scheme, micro: MicroConfig) -> f64 {
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(micro.clients);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(50), Nanos::from_millis(250));
    let builder = MicroWorkload::new(micro);
    let r = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    r.throughput_tps
}

/// The measured throughput of all four schemes, in [`Scheme::ALL`] order,
/// OCC included: excluding a candidate from the empirical sweep would let
/// the advisor misrank it unnoticed.
fn measured(micro: MicroConfig) -> [(Scheme, f64); 4] {
    Scheme::ALL.map(|scheme| (scheme, throughput(scheme, micro)))
}

#[test]
fn advisor_agrees_with_empirical_winner_or_is_close() {
    // Profiles span Table 1's axes. The advisor must either name the
    // empirical winner or pick a scheme within 15% of it — the standard
    // for a planner heuristic ("make the best choice" from statistics, not
    // clairvoyance).
    let cases = [
        // (mp, conflicts, aborts, two_round)
        (0.05, 0.0, 0.0, false),
        (0.30, 0.0, 0.0, false),
        (0.30, 0.8, 0.0, false),
        (0.30, 0.0, 0.15, false),
        (0.30, 0.0, 0.0, true),
        (0.10, 0.8, 0.15, false),
        (0.60, 0.0, 0.05, false),
    ];
    let system = SystemConfig::new(Scheme::Blocking);
    let params = ModelParams::of(&system.costs, &system.network);
    let mut agreements = 0;
    for (mp, conflict, abort, two_round) in cases {
        let micro = MicroConfig {
            mp_fraction: mp,
            conflict_prob: conflict,
            abort_prob: abort,
            two_round,
            ..Default::default()
        };
        let tps = measured(micro);
        let best = fastest(&tps);
        let profile = WorkloadProfile {
            mp_fraction: mp,
            abort_rate: abort,
            conflict_rate: conflict,
            multi_round_fraction: if two_round { 1.0 } else { 0.0 },
        };
        let rec = recommend(&params, &profile);
        let picked_tps = tps[rec.scheme as usize].1;
        let best_tps = tps[best as usize].1;
        if rec.scheme == best {
            agreements += 1;
        }
        assert!(
            picked_tps >= 0.85 * best_tps,
            "advisor picked {} ({picked_tps:.0} tps) but {} wins with {best_tps:.0} \
             (mp={mp}, conflict={conflict}, abort={abort}, two_round={two_round})",
            rec.scheme,
            best,
        );
    }
    assert!(
        agreements >= 5,
        "advisor should name the exact winner in most regimes ({agreements}/7)"
    );
}
