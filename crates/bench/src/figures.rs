//! One function per figure of the paper's evaluation section.

use crate::{mp_fractions, run_micro, run_micro_with, run_tpcc, Effort, Figure, Series};
use hcc_common::Scheme;
use hcc_model as model;
use hcc_workloads::micro::MicroConfig;
use hcc_workloads::tpcc::{TpccConfig, TxnMix};

fn micro_base() -> MicroConfig {
    MicroConfig::default() // 2 partitions, 40 clients, 12 keys
}

/// Figure 4: microbenchmark without conflicts — throughput vs.
/// multi-partition fraction for the three schemes.
pub fn fig4(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for scheme in [Scheme::Speculative, Scheme::Locking, Scheme::Blocking] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro(
                scheme,
                MicroConfig {
                    mp_fraction: f,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: scheme.name().to_string(),
            points,
        });
    }
    Figure {
        id: "fig4",
        title: "Microbenchmark Without Conflicts",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}

/// Figure 5: microbenchmark with conflicts — locking at several conflict
/// probabilities; speculation and blocking are conflict-insensitive.
pub fn fig5(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for conflict in [0.0, 0.2, 0.6, 1.0] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro(
                Scheme::Locking,
                MicroConfig {
                    mp_fraction: f,
                    conflict_prob: conflict,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: format!("locking {:.0}% conflict", conflict * 100.0),
            points,
        });
    }
    for scheme in [Scheme::Speculative, Scheme::Blocking] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            // Conflict probability affects key choice; schemes that assume
            // all transactions conflict are insensitive to it (§5.2). Run
            // with the same conflicted workload to demonstrate exactly that.
            let r = run_micro(
                scheme,
                MicroConfig {
                    mp_fraction: f,
                    conflict_prob: 0.6,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: scheme.name().to_string(),
            points,
        });
    }
    Figure {
        id: "fig5",
        title: "Microbenchmark With Conflicts",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}

/// Figure 6: microbenchmark with aborts — speculation at several abort
/// probabilities; blocking/locking at 10% for reference.
pub fn fig6(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for abort in [0.0, 0.03, 0.05, 0.10] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro(
                Scheme::Speculative,
                MicroConfig {
                    mp_fraction: f,
                    abort_prob: abort,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: format!("speculation {:.0}% aborts", abort * 100.0),
            points,
        });
    }
    for scheme in [Scheme::Blocking, Scheme::Locking] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro(
                scheme,
                MicroConfig {
                    mp_fraction: f,
                    abort_prob: 0.10,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: format!("{} 10% aborts", scheme.name()),
            points,
        });
    }
    Figure {
        id: "fig6",
        title: "Microbenchmark With Aborts",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}

/// Figure 7: general (two-round) multi-partition transactions.
pub fn fig7(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for scheme in [Scheme::Speculative, Scheme::Blocking, Scheme::Locking] {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro(
                scheme,
                MicroConfig {
                    mp_fraction: f,
                    two_round: true,
                    ..micro_base()
                },
                effort,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: scheme.name().to_string(),
            points,
        });
    }
    Figure {
        id: "fig7",
        title: "General Transaction Microbenchmark (two rounds)",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}

/// Figure 8: TPC-C throughput, warehouses divided over two partitions,
/// varying the number of warehouses.
pub fn fig8(effort: Effort) -> Figure {
    let warehouses: Vec<u32> = match effort {
        Effort::Fast => vec![2, 6, 12, 20],
        Effort::Full => vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
    };
    let mut series = Vec::new();
    for scheme in [Scheme::Speculative, Scheme::Blocking, Scheme::Locking] {
        let mut points = Vec::new();
        for &w in &warehouses {
            let r = run_tpcc(scheme, TpccConfig::new(w, 2), 40, effort);
            points.push((w as f64, r.throughput_tps));
        }
        series.push(Series {
            label: scheme.name().to_string(),
            points,
        });
    }
    Figure {
        id: "fig8",
        title: "TPC-C Throughput Varying Warehouses (2 partitions)",
        x_label: "Warehouses",
        series,
    }
}

/// Figure 9: TPC-C 100% new-order on 6 warehouses (one per partition),
/// sweeping the remote-item probability so the multi-partition fraction
/// spans 0–100%.
pub fn fig9(effort: Effort) -> Figure {
    // Remote-item probabilities chosen so P(multi-partition) =
    // 1 − (1 − p)^E[ol_cnt] covers the x range (E[ol_cnt] = 10).
    let probs: Vec<f64> = match effort {
        Effort::Fast => vec![0.0, 0.01, 0.05, 0.2, 1.0],
        Effort::Full => vec![
            0.0, 0.002, 0.005, 0.01, 0.02, 0.033, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 1.0,
        ],
    };
    let mut series = Vec::new();
    for scheme in [Scheme::Speculative, Scheme::Blocking, Scheme::Locking] {
        let mut points = Vec::new();
        for &p in &probs {
            let mut cfg = TpccConfig::new(6, 2);
            cfg.mix = TxnMix::new_order_only();
            cfg.remote_item_prob = p;
            cfg.classify_by_warehouse = true;
            let r = run_tpcc(scheme, cfg, 40, effort);
            // x-axis: measured multi-partition fraction, as in the paper.
            points.push((r.mp_fraction() * 100.0, r.throughput_tps));
        }
        series.push(Series {
            label: scheme.name().to_string(),
            points,
        });
    }
    Figure {
        id: "fig9",
        title: "TPC-C 100% New Order (6 warehouses / 2 partitions)",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}

/// Figure 10: analytical model vs. measured throughput (no replication).
pub fn fig10(effort: Effort) -> Figure {
    let params = crate::model_params();
    let fracs = mp_fractions(Effort::Full);
    let model_series = |label: &str, f: &dyn Fn(f64) -> f64| Series {
        label: label.to_string(),
        points: fracs.iter().map(|&x| (x * 100.0, f(x))).collect(),
    };
    let mut series = vec![
        model_series("model speculation", &|f| {
            model::speculation_throughput(&params, f)
        }),
        model_series("model local spec", &|f| {
            model::local_speculation_throughput(&params, f)
        }),
        model_series("model blocking", &|f| {
            model::blocking_throughput(&params, f)
        }),
        model_series("model locking", &|f| model::locking_throughput(&params, f)),
    ];
    // Measured: blocking, locking, local-only speculation (the variant the
    // paper plots), and full speculation for comparison.
    let measured = |label: &str, scheme: Scheme, local_only: bool| {
        let mut points = Vec::new();
        for f in mp_fractions(effort) {
            let r = run_micro_with(
                scheme,
                MicroConfig {
                    mp_fraction: f,
                    ..micro_base()
                },
                effort.window(),
                |sys| sys.local_speculation_only = local_only,
            );
            points.push((f * 100.0, r.throughput_tps));
        }
        Series {
            label: label.to_string(),
            points,
        }
    };
    series.push(measured("measured blocking", Scheme::Blocking, false));
    series.push(measured("measured locking", Scheme::Locking, false));
    series.push(measured("measured local spec", Scheme::Speculative, true));
    series.push(measured("measured speculation", Scheme::Speculative, false));
    Figure {
        id: "fig10",
        title: "Analytical Model vs Measured (no replication)",
        x_label: "Multi-Partition Transactions (%)",
        series,
    }
}
