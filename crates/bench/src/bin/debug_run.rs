//! Scratch diagnostics: print full report details for one configuration.
//!
//! Usage:
//! `debug_run <scheme> <mp%> [conflict%] [abort%] [two_round] [KNOB…]`
//! `debug_run tpcc <scheme> <warehouses> <partitions>`
//!
//! The microbenchmark runs two partitions for `repro --fast`'s window
//! (50 ms warm-up, 250 ms measured) with 40 clients and seed 42. Knobs
//! follow the positional arguments:
//! * the golden keys' `local` (local speculation only) and `depthN`
//!   (`max_speculation_depth`);
//! * `clientsN`, `seedN`, and `msW+M` (W ms warm-up, M ms measured; the
//!   golden table's window is `ms20+100`).

use hcc_bench::goldens::apply_knob;
use hcc_bench::{run_micro_with, Effort};
use hcc_common::{Nanos, Scheme};
use hcc_workloads::micro::MicroConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(|s| s.as_str()) == Some("tpcc") {
        let scheme = match args.get(1).map(|s| s.as_str()) {
            Some("blocking") => Scheme::Blocking,
            Some("locking") => Scheme::Locking,
            _ => Scheme::Speculative,
        };
        let w: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
        let p: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);
        let r = hcc_bench::run_tpcc(
            scheme,
            hcc_workloads::tpcc::TpccConfig::new(w, p),
            40,
            Effort::Fast,
        );
        println!("{}", r.summary());
        println!("sched: {:#?}", r.sched);
        return;
    }
    let scheme = match args.first().map(|s| s.as_str()) {
        Some("blocking") => Scheme::Blocking,
        Some("locking") => Scheme::Locking,
        Some("occ") => Scheme::Occ,
        _ => Scheme::Speculative,
    };
    let numbers: Vec<f64> = args[1..].iter().map_while(|a| a.parse().ok()).collect();
    let pct = |i: usize, default: f64| numbers.get(i).copied().unwrap_or(default) / 100.0;
    let mut micro = MicroConfig {
        mp_fraction: pct(0, 50.0),
        conflict_prob: pct(1, 0.0),
        abort_prob: pct(2, 0.0),
        two_round: numbers.get(3) == Some(&1.0),
        ..Default::default()
    };
    let mut window = Effort::Fast.window();
    let mut knobs = Vec::new();
    for arg in &args[1 + numbers.len()..] {
        if let Some(n) = arg.strip_prefix("clients").and_then(|n| n.parse().ok()) {
            micro.clients = n;
        } else if let Some(n) = arg.strip_prefix("seed").and_then(|n| n.parse().ok()) {
            micro.seed = n;
        } else if let Some((w, m)) = arg.strip_prefix("ms").and_then(|s| s.split_once('+')) {
            let ms = |s: &str| Nanos::from_millis(s.parse().expect("msW+M"));
            window = (ms(w), ms(m));
        } else {
            knobs.push(arg);
        }
    }
    let r = run_micro_with(scheme, micro, window, |system| {
        for knob in knobs {
            assert!(apply_knob(system, knob), "no knob {knob:?}");
        }
    });
    println!("{}", r.summary());
    println!("sched: {:#?}", r.sched);
    println!("coord: {:#?}", r.coord);
}
