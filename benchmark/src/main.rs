//! The repo's benchmark. Four workloads on the live runtime
//! (`hcc_runtime::run`, `multiplexed:2`), the end-to-end metrics from
//! untraced timed windows, the per-layer metrics from a separate traced
//! pass and single-threaded layer drives — all from outside `crates/`,
//! through public functions and the two injectable seams.
//!
//! ```text
//! hcc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object the builder's contract describes
//! hcc-benchmark run [--seed <n>] [--quick]
//!     every workload, seven untraced trials each (interleaved, one child
//!     process per trial) plus one traced pass; writes
//!     benchmark/out/result.json
//! hcc-benchmark compare <a.json> <b.json>
//!     applies the bounds per (workload, metric); non-zero exit on a
//!     regression
//! ```

mod drives;
mod insitu;
mod json;
mod metrics;
mod stats;
mod suite;
mod trace;
mod trial;
mod workloads;

use json::Value;
use metrics::{unit_of, Values, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

/// One run's result, in the contract's shape.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
}

impl RunResult {
    fn to_json(&self) -> Value {
        json::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            (
                "metrics",
                Value::Object(
                    self.metrics
                        .0
                        .iter()
                        .map(|(name, v)| {
                            let m = json::obj(vec![
                                ("value", Value::Float(*v)),
                                ("unit", json::str(unit_of(name))),
                            ]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One untraced trial → the end-to-end metrics.
fn timed_run(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let t = with_workload!(workload, |w| trial::timed(w, seed, seconds))?;
    println!("window   tps        p50_us    p99_us    samples");
    for (i, r) in t.windows.iter().enumerate() {
        println!(
            "{i:<8} {:<10.0} {:<9.2} {:<9.1} {}",
            r.tps, r.p50_us, r.p99_us, r.latency_samples
        );
    }
    println!("set-ups  {:.6?} s", t.setups);
    println!(
        "medians over {} windows and {} set-ups",
        t.windows.len(),
        t.setups.len()
    );
    for e in &t.errors {
        eprintln!("correctness: {e}");
    }
    let mut metrics = Values::default();
    metrics.set("tps", t.tps);
    metrics.set("p50_us", t.p50_us);
    metrics.set("setup_s", t.setup_s);
    debug_assert_eq!(metrics.0.len(), END_TO_END.len());
    Ok(RunResult {
        correct: t.errors.is_empty(),
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics,
    })
}

/// The traced pass and the layer drives → the per-layer metrics, and
/// `out/trace-<workload>.json`.
fn traced_run(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let (situ, drives) = with_workload!(workload, |w| (
        insitu::traced_pass(w, seed, seconds),
        drives::layer_drives(w, seed)
    ))?;
    for e in situ.errors.iter().chain(&drives.errors) {
        eprintln!("correctness: {e}");
    }
    let mut found = situ.metrics;
    found.0.extend(drives.metrics.0);
    found.set("mem.peak_rss_mb", peak_rss_mib());
    // Emit in the vocabulary's order; a metric nobody computed is a bug.
    let mut metrics = Values::default();
    for p in &PER_LAYER {
        let v = found
            .get(p.name)
            .unwrap_or_else(|| panic!("per-layer metric {} was not computed", p.name));
        metrics.set(p.name, v);
    }
    assert_eq!(
        found.0.len(),
        metrics.0.len(),
        "a computed metric is not in the vocabulary"
    );

    let path = out_dir().join(format!("trace-{workload}.json"));
    write_trace(
        &path,
        workload,
        seed,
        &[("insitu", &situ.trace), ("drive", &drives.trace)],
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());

    let correct = situ.errors.is_empty() && drives.errors.is_empty();
    Ok(RunResult {
        correct,
        attempted: situ.attempted.max(1),
        failed: if correct {
            situ.failed
        } else {
            situ.attempted.max(1)
        },
        metrics,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    phases: &[(&str, &trace::Trace)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Rendered by hand: a value tree for ~200k spans would allocate a
    // million strings to say the same thing.
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"phases\":{{"
    );
    for (pi, (phase, t)) in phases.iter().enumerate() {
        if pi > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{phase}\":{{\"dropped\":{},\"aggregates\":{{",
            t.dropped
        );
        for (i, (name, a)) in t.aggs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        s.push_str("},\"threads\":[");
        for (ti, spans) in t.threads.iter().enumerate() {
            if ti > 0 {
                s.push(',');
            }
            s.push('[');
            for (i, sp) in spans.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\n{{\"name\":\"{}\",\"txn\":", sp.name);
                match sp.txn {
                    trace::NO_TXN => s.push_str("null"),
                    txn => {
                        let _ = write!(s, "{txn}");
                    }
                }
                let _ = write!(
                    s,
                    ",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                    sp.start_ns, sp.end_ns
                );
                match sp.parent {
                    None => s.push_str("null"),
                    Some(p) => {
                        let _ = write!(s, "{p}");
                    }
                }
                s.push('}');
            }
            s.push(']');
        }
        s.push_str("]}");
    }
    s.push_str("}}\n");
    std::fs::write(path, s)
}

/// The contract's entry point: one run, result object on the last line.
fn contract_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = parsed(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = parsed(args, "--seconds")?.ok_or("--seconds is required")?;
    let traced = match flag(args, "--trace")? {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    if suite::nproc() < workloads::WORKERS {
        eprintln!(
            "warning: {} cpu(s) for {} reactor workers — numbers from this host are not comparable",
            suite::nproc(),
            workloads::WORKERS
        );
    }
    let result = if traced {
        traced_run(workload, seed, seconds)?
    } else {
        timed_run(workload, seed, seconds)?
    };
    for (name, v) in &result.metrics.0 {
        println!("{name:<40} {v:>16.6} {}", unit_of(name));
    }
    println!("{}", json::compact(&result.to_json()));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!(
                "usage:\n  hcc-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
                 hcc-benchmark run [--seed <n>] [--quick]\n  \
                 hcc-benchmark compare <a.json> <b.json>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(64);
        }
        Some(_) => contract_run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the binary emits is the vocabulary, no more and no less: a
    /// short timed trial gives every end-to-end metric, a short traced pass
    /// every per-layer metric (it panics on a missing or unlisted one), and
    /// both pass their correctness checks.
    #[test]
    fn runs_emit_exactly_the_vocabulary() {
        let _sink = trace::TEST_SINK_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let names = |r: &RunResult| r.metrics.0.iter().map(|(n, _)| *n).collect::<Vec<_>>();

        let timed = timed_run("micro_sp", 3, 0.3).unwrap();
        assert_eq!(names(&timed), END_TO_END.map(|e| e.name));
        assert!(timed.correct && timed.failed == 0 && timed.attempted > 0);
        assert!(timed.metrics.0.iter().all(|(_, v)| *v > 0.0));

        let traced = traced_run("micro_mp", 3, 0.05).unwrap();
        assert_eq!(names(&traced), PER_LAYER.map(|p| p.name));
        assert!(traced.correct && traced.failed == 0);
        // The bypass rule: a speculative workload never waits on a lock,
        // and the layers its configuration leaves out (lock manager,
        // ordered index, log, backups) are not driven.
        assert_eq!(traced.metrics.get("core.sched.lock_wait_share"), Some(0.0));
        for p in PER_LAYER.iter().filter(|p| {
            matches!(
                p.layer,
                "locking"
                    | "storage.ordered"
                    | "common.codec"
                    | "storage.durable"
                    | "core.replica"
                    | "core.recovery"
            )
        }) {
            assert_eq!(traced.metrics.get(p.name), Some(0.0), "{}", p.name);
        }
        assert!(
            traced
                .metrics
                .get("core.coordinator.msgs_per_mp_txn")
                .unwrap()
                > 0.0
        );

        assert!(timed_run("no_such_workload", 3, 0.3).is_err());
    }
}
