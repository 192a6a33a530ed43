//! Ablation: speculation under abort-heavy workloads, and the paper's
//! §5.3 mitigation — "if a transaction has a very high abort probability,
//! it may be better to limit the amount of speculation to avoid wasted
//! work" — implemented as `max_speculation_depth`.
//!
//! ```text
//! cargo run --release --example abort_storm
//! ```

use hcc::prelude::*;
use hcc::workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};

fn run(abort: f64, depth: usize) -> RuntimeReport<MicroEngine> {
    let micro = MicroConfig {
        mp_fraction: 0.3,
        abort_prob: abort,
        ..Default::default()
    };
    let mut system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(micro.partitions)
        .with_clients(micro.clients);
    system.max_speculation_depth = depth;
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(100), Nanos::from_millis(400));
    let builder = MicroWorkload::new(micro);
    hcc::runtime::run(cfg, MicroWorkload::new(micro), move |p| {
        builder.build_engine(p)
    })
}

fn main() {
    println!("Speculation with cascading aborts (30% multi-partition transactions)\n");
    println!(
        "{:>8} | {:>12} {:>12} {:>12} {:>12}",
        "abort %", "unlimited", "depth 8", "depth 2", "depth 0*"
    );
    println!("{}", "-".repeat(64));
    for abort in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let cells: Vec<String> = [usize::MAX, 8, 2, 0]
            .iter()
            .map(|&d| {
                let r = run(abort, d);
                format!("{:>12.0}", r.throughput_tps)
            })
            .collect();
        println!("{:>8.0} | {}", abort * 100.0, cells.join(" "));
    }
    println!("\n(*depth 0 = no speculation at all ≈ the blocking scheme)");
    println!("\nEach cascading abort squashes every speculated transaction behind it;");
    println!("at high abort rates a shallower speculation window wastes less work —");
    println!("the trade-off the paper suggests a runtime statistics collector could tune.");

    // Show the wasted-work accounting explicitly for one config.
    let r = run(0.10, usize::MAX);
    println!(
        "\nAt 10% aborts, unlimited depth: {} fragments executed, {} squashed and re-run ({:.0}% waste).",
        r.sched.fragments_executed,
        r.sched.squashed_executions,
        100.0 * r.sched.squashed_executions as f64 / r.sched.fragments_executed.max(1) as f64,
    );
}
