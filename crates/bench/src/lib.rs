//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Figures 4–10, Tables 1–2) on the simulator
//! (`BackendChoice::Sim`).
//!
//! Each `figN()` function returns a [`Figure`]: named series of
//! (x, throughput) points, plus the sweep metadata. The `repro` binary
//! renders them as ASCII charts and CSV files under `results/`.
//! [`goldens`] defines the fixed-seed golden table that `golden_capture`
//! writes and the `goldens` test reads.

#![forbid(unsafe_code)]

pub mod figures;
pub mod goldens;
pub mod plot;
pub mod tables;

use hcc_common::{Nanos, Scheme, SystemConfig};
use hcc_model::ModelParams;
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccEngine, TpccWorkload};

/// One plotted series.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Series {
    pub label: String,
    /// (x, transactions/second)
    pub points: Vec<(f64, f64)>,
}

/// One reproduced figure.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub x_label: &'static str,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Measurement windows: `fast` for CI-style smoke runs, `full` for the
/// figures (still seconds of host time thanks to the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    Fast,
    Full,
}

impl Effort {
    pub fn window(self) -> (Nanos, Nanos) {
        match self {
            Effort::Fast => (Nanos::from_millis(50), Nanos::from_millis(250)),
            Effort::Full => (Nanos::from_millis(200), Nanos::from_millis(1500)),
        }
    }
}

/// The simulator run of `system` over a (warm-up, measured) window.
fn sim_config(system: SystemConfig, (warmup, measure): (Nanos, Nanos)) -> RuntimeConfig {
    RuntimeConfig::new(system, BackendChoice::Sim { shadow: false }).with_window(warmup, measure)
}

/// The §6 model's parameters for the system [`run_micro`] simulates.
pub fn model_params() -> ModelParams {
    let system = SystemConfig::new(Scheme::Blocking);
    ModelParams::of(&system.costs, &system.network)
}

/// Run the microbenchmark once and return the report.
pub fn run_micro(scheme: Scheme, micro: MicroConfig, effort: Effort) -> RuntimeReport<MicroEngine> {
    run_micro_with(scheme, micro, effort.window(), |_| {})
}

/// Run the microbenchmark over a (warm-up, measured) window with extra
/// system-config tweaks.
pub fn run_micro_with(
    scheme: Scheme,
    micro: MicroConfig,
    window: (Nanos, Nanos),
    tweak: impl FnOnce(&mut SystemConfig),
) -> RuntimeReport<MicroEngine> {
    let mut system = SystemConfig::new(scheme)
        .with_partitions(micro.partitions)
        .with_clients(micro.clients)
        .with_seed(micro.seed);
    tweak(&mut system);
    let builder = MicroWorkload::new(micro);
    run(
        sim_config(system, window),
        MicroWorkload::new(micro),
        move |p| builder.build_engine(p),
    )
}

/// Run TPC-C once and return the report.
pub fn run_tpcc(
    scheme: Scheme,
    tpcc: TpccConfig,
    clients: u32,
    effort: Effort,
) -> RuntimeReport<TpccEngine> {
    let mut system = SystemConfig::new(scheme)
        .with_partitions(tpcc.partitions)
        .with_clients(clients)
        .with_seed(tpcc.seed);
    // TPC-C has real distributed deadlocks (§5.6); resolve them promptly.
    // (The microbenchmarks keep the long default so heavy-conflict convoy
    // waits never false-positive — that workload is deadlock-free.)
    system.lock_timeout = hcc_common::Nanos::from_millis(1);
    // §5.6: "The locking overhead is higher for TPC-C than our
    // microbenchmark [because] more locks are acquired for each
    // transaction [and] the lock manager is more complex." Our engine
    // locks ~14 coarse granules per new-order where the paper's locks
    // ~25-30 rows; the higher per-lock rate matches the paper's measured
    // 34%-of-execution-time lock overhead at the same granule count.
    system.costs.per_lock = hcc_common::Nanos(1_800);
    let builder = TpccWorkload::new(tpcc);
    run(
        sim_config(system, effort.window()),
        TpccWorkload::new(tpcc),
        move |p| builder.build_engine(p),
    )
}

/// The multi-partition fractions swept on the x-axes of Figures 4–7.
pub fn mp_fractions(effort: Effort) -> Vec<f64> {
    match effort {
        Effort::Fast => vec![0.0, 0.1, 0.3, 0.5, 0.75, 1.0],
        Effort::Full => vec![
            0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70,
            0.80, 0.90, 1.0,
        ],
    }
}
