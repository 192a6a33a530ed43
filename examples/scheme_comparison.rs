//! Compare the three concurrency control schemes on the paper's
//! microbenchmark as the multi-partition fraction grows — a miniature
//! Figure 4, plus the §6 analytical model's predictions side by side.
//!
//! ```text
//! cargo run --release --example scheme_comparison
//! ```

use hcc::model;
use hcc::prelude::*;
use hcc::workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

fn run(scheme: Scheme, mp: f64) -> RuntimeReport<MicroEngine> {
    let micro = MicroConfig {
        mp_fraction: mp,
        ..Default::default()
    };
    let system = SystemConfig::new(scheme)
        .with_partitions(micro.partitions)
        .with_clients(micro.clients);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(100), Nanos::from_millis(400));
    let builder = MicroWorkload::new(micro);
    hcc::runtime::run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    })
}

fn main() {
    println!("Microbenchmark: 2 partitions, 40 clients, 12-key read/write transactions");
    println!("(simulated on the cost model calibrated to the paper's Table 2; the model");
    println!(" columns take their parameters from that same cost model)\n");
    println!(
        "{:>5} | {:>10} {:>10} {:>10} | {:>10} {:>10} | best",
        "MP %", "blocking", "spec", "locking", "model blk", "model spec"
    );
    println!("{}", "-".repeat(84));

    let system = SystemConfig::new(Scheme::Blocking);
    let params = model::ModelParams::of(&system.costs, &system.network);
    for mp in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0] {
        let [b, s, l] = [Scheme::Blocking, Scheme::Speculative, Scheme::Locking]
            .map(|scheme| (scheme, run(scheme, mp).throughput_tps));
        println!(
            "{:>5.0} | {:>10.0} {:>10.0} {:>10.0} | {:>10.0} {:>10.0} | {}",
            mp * 100.0,
            b.1,
            s.1,
            l.1,
            model::blocking_throughput(&params, mp),
            model::speculation_throughput(&params, mp),
            model::fastest(&[b, s, l]),
        );
    }

    println!("\nThe paper's headline relationships, visible above:");
    println!("  * all schemes match at 0% (no concurrency control needed);");
    println!("  * blocking collapses as multi-partition work appears;");
    println!("  * speculation leads until the central coordinator saturates (~50%);");
    println!("  * locking (client-coordinated 2PC, no central coordinator) wins past it.");
}
