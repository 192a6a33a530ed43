//! Figure 10's claim, as a test: the §6 analytical model is "a reasonable
//! approximation for the behavior of the real system". We check agreement
//! between the model and the simulator on the quantities the model covers,
//! and the qualitative relationships everywhere else.

use hcc::model::{self, ModelParams};
use hcc::prelude::*;
use hcc::workloads::micro::{MicroConfig, MicroWorkload};

fn measured(scheme: Scheme, mp: f64, local_only: bool) -> f64 {
    let micro = MicroConfig {
        mp_fraction: mp,
        ..Default::default()
    };
    let mut system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(40);
    system.local_speculation_only = local_only;
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(50), Nanos::from_millis(300));
    let builder = MicroWorkload::new(micro);
    let r = run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    });
    r.throughput_tps
}

/// The model's parameters for the system `measured` runs.
fn params() -> ModelParams {
    let system = SystemConfig::new(Scheme::Blocking);
    ModelParams::of(&system.costs, &system.network)
}

#[test]
fn blocking_matches_model_within_tolerance() {
    let p = params();
    // At f = 1 each partition runs one multi-partition transaction at a
    // time, so 1/throughput is t_mp: the model charges what the simulator
    // charges.
    let t_mp = 1.0 / measured(Scheme::Blocking, 1.0, false);
    let err = (p.t_mp.as_secs_f64() - t_mp).abs() / t_mp;
    assert!(
        err < 0.005,
        "derived t_mp {} vs measured {:.1}µs ({:.2}% off)",
        p.t_mp,
        t_mp * 1e6,
        err * 100.0
    );
    for mp in [0.0, 0.1, 0.3, 0.5, 0.8, 1.0] {
        let m = model::blocking_throughput(&p, mp);
        let s = measured(Scheme::Blocking, mp, false);
        let err = (m - s).abs() / s;
        assert!(
            err < 0.15,
            "blocking at f={mp}: model {m:.0} vs measured {s:.0} ({:.0}% off)",
            err * 100.0
        );
    }
}

#[test]
fn zero_mp_throughput_matches_t_sp() {
    // 2 partitions at t_sp = 64 µs each ⇒ 31 250 tps.
    let s = measured(Scheme::Speculative, 0.0, false);
    assert!((s - 31_250.0).abs() / 31_250.0 < 0.05, "measured {s}");
}

#[test]
fn local_speculation_tracks_model_shape() {
    // The local-speculation model has a kink where the single-partition
    // supply stops covering the stall; past it, throughput falls toward
    // the blocking-like limit. Check the measured curve is between the
    // blocking and full-speculation models everywhere.
    let p = params();
    for mp in [0.1, 0.3, 0.5, 0.8] {
        let s = measured(Scheme::Speculative, mp, true);
        let blocking_floor = measured(Scheme::Blocking, mp, false);
        let spec_ceiling = model::speculation_throughput(&p, mp) * 1.10;
        assert!(
            s >= blocking_floor * 0.95 && s <= spec_ceiling,
            "local spec at f={mp}: {s:.0} outside [{blocking_floor:.0}, {spec_ceiling:.0}]"
        );
    }
}

#[test]
fn mp_speculation_beats_local_speculation_at_high_mp() {
    // §6.4: "speculating multi-partition transactions leads to a
    // substantial improvement when they comprise a large fraction of the
    // workload."
    let full = measured(Scheme::Speculative, 0.6, false);
    let local = measured(Scheme::Speculative, 0.6, true);
    assert!(
        full > 1.3 * local,
        "full speculation {full:.0} vs local-only {local:.0}"
    );
}

#[test]
fn measured_crossovers_match_paper_narrative() {
    // Speculation > locking below the coordinator saturation point...
    assert!(measured(Scheme::Speculative, 0.2, false) > measured(Scheme::Locking, 0.2, false));
    // ...and locking > speculation at 100% MP (coordinator-bound).
    assert!(measured(Scheme::Locking, 1.0, false) > measured(Scheme::Speculative, 1.0, false));
    // Blocking is never best once MP transactions appear.
    for mp in [0.1, 0.5, 1.0] {
        let b = measured(Scheme::Blocking, mp, false);
        assert!(measured(Scheme::Speculative, mp, false) > b);
        assert!(measured(Scheme::Locking, mp, false) > b);
    }
}
