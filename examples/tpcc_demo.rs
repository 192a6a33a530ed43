//! TPC-C on the live multiplexed runtime: the full five-transaction mix,
//! partitioned by warehouse, with the read-only ITEM table replicated and
//! STOCK vertically partitioned — exactly the paper's §5.5 setup, executed
//! on real OS threads, followed by TPC-C consistency verification.
//!
//! ```text
//! cargo run --release --example tpcc_demo [warehouses] [scheme] [multiplexed[:N]|sim]
//! ```

use hcc::prelude::*;
use hcc::storage::tpcc::consistency;
use hcc::workloads::tpcc::{TpccConfig, TpccWorkload};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let warehouses: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(4);
    let scheme = match args.get(1).map(|s| s.as_str()) {
        Some("blocking") => Scheme::Blocking,
        Some("locking") => Scheme::Locking,
        Some("occ") => Scheme::Occ,
        _ => Scheme::Speculative,
    };
    let backend = args
        .get(2)
        .map(|a| BackendChoice::parse(a).unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or(BackendChoice::multiplexed());
    let partitions = 2u32;

    println!(
        "TPC-C: {warehouses} warehouses over {partitions} partitions, scheme = {scheme}, backend = {backend}"
    );
    let tpcc = TpccConfig::new(warehouses, partitions);
    println!(
        "  loading ({} items, {} districts/warehouse, {} customers/district)...",
        tpcc.scale.items, tpcc.scale.districts_per_warehouse, tpcc.scale.customers_per_district
    );

    let mut system = SystemConfig::new(scheme)
        .with_partitions(partitions)
        .with_clients(16);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::new(system, backend)
        .with_window(Duration::from_millis(200), Duration::from_secs(1));

    let builder = TpccWorkload::new(tpcc);
    let report = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });

    println!("\n  committed (1s window) : {}", report.committed);
    println!(
        "  throughput            : {:.0} txn/s",
        report.throughput_tps
    );
    println!("  latency               : {}", report.latency());
    println!(
        "  user aborts           : {} (1% invalid-item new-orders)",
        report.clients.user_aborted
    );
    println!(
        "  retries               : {} (deadlock victims / timeouts)",
        report.clients.retries
    );
    println!("  fast-path txns        : {}", report.sched.fast_path);
    println!(
        "  speculative execs     : {}",
        report.sched.speculative_executions
    );
    println!("  local deadlocks       : {}", report.sched.local_deadlocks);
    println!("  lock timeouts         : {}", report.sched.lock_timeouts);

    // TPC-C consistency conditions (clause 3.3.2) on the final state of
    // every partition: W_YTD = Σ D_YTD, order-id continuity, NEW-ORDER /
    // ORDER pairing, order-line counts.
    print!("\n  verifying TPC-C consistency conditions... ");
    let mut ok = true;
    for (i, engine) in report.engines.iter().enumerate() {
        if let Err(violations) = consistency::check(&engine.store) {
            ok = false;
            println!("\n  partition {i} VIOLATIONS:");
            for v in violations.iter().take(5) {
                println!("    {v}");
            }
        }
    }
    if ok {
        println!("all conditions hold on every partition.");
    } else {
        std::process::exit(1);
    }
}
