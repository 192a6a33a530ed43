//! `run`: every workload through repeated trials (each a fresh child
//! process of this binary, so nothing carries over between trials and the
//! parent sleeps while two reactor workers run), reduced to medians with
//! their spread and written to `out/result.json` with the host it was
//! measured on. `compare`: two such files against the benchmark's bounds.

use crate::json::{self, as_array, as_f64, as_str, get, Value};
use crate::metrics::{unit_of, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::trial::WINDOWS;
use crate::workloads::{NAMES, WORKERS};
use std::process::{Command, ExitCode};

/// How far `failed / attempted` may rise, absolute.
const FAILED_SHARE_BOUND: f64 = 0.001;
/// Trials per workload in a recorded set.
const ROUNDS: usize = 7;
/// Window time per trial, seconds: `run_seconds` in `BENCHMARK.json`.
pub const SECONDS: f64 = 18.0;
/// What makes two result files comparable: `compare` wants these equal.
const PROTOCOL: [&str; 4] = ["seed", "seconds", "rounds", "windows_per_trial"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One child run of this binary in contract mode; its parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning trial: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: trial printed nothing (status {})", out.status))?;
    json::parse(last).map_err(|e| format!("{workload}: trial result line: {e}"))
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    get(result, "metrics")
        .and_then(|m| get(m, name))
        .and_then(|m| get(m, "value"))
        .and_then(as_f64)
        .ok_or_else(|| format!("trial result has no metric {name}"))
}

fn count(result: &Value, key: &str) -> u64 {
    get(result, key).and_then(as_f64).unwrap_or(0.0) as u64
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_block() -> Value {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let git = |args: &[&str]| command_line("git", &[&["-C", manifest_dir], args].concat());
    // Uncommitted changes make the commit id a lie; say so.
    let dirty = match git(&["status", "--porcelain"]).as_str() {
        "unknown" => "",
        _ => "-dirty",
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    json::obj(vec![
        ("nproc", Value::UInt(nproc() as u64)),
        ("rustc", json::str(&command_line("rustc", &["-V"]))),
        (
            "commit",
            json::str(&format!("{}{dirty}", git(&["rev-parse", "HEAD"]))),
        ),
        ("kernel", json::str(&kernel)),
        (
            "utc",
            json::str(&command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
    ])
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut quick) = (7u64, false);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
            }
            other => return Err(format!("run: unknown argument {other:?}")),
        }
    }
    // Smoke use: one round of 1 s windows, stamped so it is never compared.
    let (rounds, seconds) = if quick {
        (1, f64::from(WINDOWS))
    } else {
        (ROUNDS, SECONDS)
    };
    if nproc() < WORKERS {
        return Err(format!(
            "refusing to record: {} cpu(s) for {WORKERS} reactor workers would measure \
             oversubscription, not the runtime",
            nproc()
        ));
    }

    // Workloads interleaved inside each round, so a slow host phase
    // spreads over all of them instead of landing on one.
    let mut trials: Vec<Vec<Value>> = NAMES.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (wi, w) in NAMES.iter().enumerate() {
            eprintln!("round {}/{rounds}: {w}", round + 1);
            trials[wi].push(child(w, seed, seconds, false)?);
        }
    }
    let mut traced = Vec::new();
    for w in NAMES {
        eprintln!("traced pass: {w}");
        traced.push(child(w, seed, seconds, true)?);
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    println!(
        "{:<14} {:<9} {:>14} {:>14} {:>14} {:>9}  unit",
        "workload", "metric", "median", "min", "max", "iqr/med"
    );
    for (wi, w) in NAMES.iter().enumerate() {
        let mut end_to_end = Vec::new();
        for e in &END_TO_END {
            let values = trials[wi]
                .iter()
                .map(|t| metric_value(t, e.name))
                .collect::<Result<Vec<_>, _>>()?;
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            println!(
                "{w:<14} {:<9} {:>14.6} {lo:>14.6} {hi:>14.6} {:>9.4}  {}",
                e.name,
                median(&values),
                iqr_share(&values),
                e.unit
            );
            end_to_end.push((
                e.name,
                json::obj(vec![
                    ("unit", json::str(e.unit)),
                    ("better", json::str(e.better)),
                    ("bound", Value::Float(e.bound)),
                    ("median", Value::Float(median(&values))),
                    ("min", Value::Float(lo)),
                    ("max", Value::Float(hi)),
                    ("iqr_share", Value::Float(iqr_share(&values))),
                    (
                        "trials",
                        Value::Array(values.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
        let attempted: u64 = trials[wi].iter().map(|t| count(t, "attempted")).sum();
        let failed: u64 = trials[wi].iter().map(|t| count(t, "failed")).sum();
        let correct = trials[wi]
            .iter()
            .chain([&traced[wi]])
            .all(|t| get(t, "correct") == Some(&Value::Bool(true)));
        all_correct &= correct;
        println!(
            "{w:<14} failed {failed} of {attempted} attempted; correctness checks {}",
            if correct { "passed" } else { "FAILED" }
        );
        workloads.push((
            *w,
            json::obj(vec![
                ("correct", Value::Bool(correct)),
                ("attempted", Value::UInt(attempted)),
                ("failed", Value::UInt(failed)),
                (
                    "failed_share",
                    Value::Float(failed as f64 / attempted.max(1) as f64),
                ),
                ("end_to_end", json::obj(end_to_end)),
                ("per_layer", json::obj(per_layer(&traced[wi])?)),
            ]),
        ));
    }
    println!("\nper-layer metrics (one traced pass per workload):");
    println!(
        "{:<40} {}",
        "metric",
        NAMES.map(|w| format!("{w:>16}")).join(" ")
    );
    for p in &PER_LAYER {
        let row = traced
            .iter()
            .map(|t| metric_value(t, p.name).map(|v| format!("{v:>16.4}")))
            .collect::<Result<Vec<_>, _>>()?;
        println!("{:<40} {} {}", p.name, row.join(" "), unit_of(p.name));
    }

    let result = json::obj(vec![
        ("schema", Value::UInt(1)),
        ("quick", Value::Bool(quick)),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("rounds", Value::UInt(rounds as u64)),
        ("windows_per_trial", Value::UInt(u64::from(WINDOWS))),
        ("host", host_block()),
        ("workloads", json::obj(workloads)),
    ]);
    let path = crate::out_dir().join("result.json");
    std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, json::pretty(&result) + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// A traced child's per-layer values, each with what the vocabulary says
/// about it: the layer, where the number comes from, what it should move.
fn per_layer(traced: &Value) -> Result<Vec<(&'static str, Value)>, String> {
    PER_LAYER
        .iter()
        .map(|p| {
            let entry = json::obj(vec![
                ("value", Value::Float(metric_value(traced, p.name)?)),
                ("unit", json::str(p.unit)),
                ("better", json::str(p.better)),
                ("layer", json::str(p.layer)),
                (
                    "source",
                    json::str(&format!("{:?}", p.source).to_lowercase()),
                ),
                ("moves", json::str(p.moves)),
            ]);
            Ok((p.name, entry))
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs' own spread is wider than the bound: the comparison
    /// cannot tell a loss of that size from noise.
    Unresolved,
}

/// How much worse than the baseline median `a` the metric may get, in its
/// own unit: the bound's share of `a`, or the metric's floor if larger.
fn limit(e: &EndToEnd, a: f64) -> f64 {
    (e.bound * a).max(e.floor)
}

/// Judge one (workload, metric) pair: `a` is the baseline median, `b` the
/// candidate's, `spread` the wider of the two sets' IQR shares.
pub fn judge(e: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = if e.better == "higher" { a - b } else { b - a };
    let noise = spread * a;
    if worse > limit(e, a) && worse > noise {
        Verdict::Regressed
    } else if noise > limit(e, a) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if get(&doc, "quick") != Some(&Value::Bool(false)) {
        return Err(format!(
            "{path} is a --quick run (or not a result file): quick runs are never compared"
        ));
    }
    Ok(doc)
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in PROTOCOL {
        if get(&a, key).is_none() || get(&a, key) != get(&b, key) {
            return Err(format!(
                "the two files differ in {key:?}: they were not measured the same way"
            ));
        }
    }
    let num = |doc: &Value, w: &str, path: &[&str]| -> Result<f64, String> {
        let mut v = get(doc, "workloads").and_then(|ws| get(ws, w));
        for key in path {
            v = v.and_then(|x| get(x, key));
        }
        v.and_then(as_f64)
            .ok_or_else(|| format!("{w}: missing {}", path.join(".")))
    };
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let mut regressed = false;
    for w in NAMES {
        for e in &END_TO_END {
            let (ma, mb) = (
                num(&a, w, &["end_to_end", e.name, "median"])?,
                num(&b, w, &["end_to_end", e.name, "median"])?,
            );
            let spread = num(&a, w, &["end_to_end", e.name, "iqr_share"])?.max(num(
                &b,
                w,
                &["end_to_end", e.name, "iqr_share"],
            )?);
            let verdict = judge(e, ma, mb, spread);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{w:<14} {:<13} {ma:>14.6} {mb:>14.6} {:>+8.1}% {:>7.1}% {:>6.0}%  {}",
                e.name,
                (mb - ma) / ma * 100.0,
                spread * 100.0,
                e.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let (fa, fb) = (
            num(&a, w, &["failed_share"])?,
            num(&b, w, &["failed_share"])?,
        );
        let bad = fb > fa + FAILED_SHARE_BOUND;
        regressed |= bad;
        println!(
            "{w:<14} {:<13} {fa:>14.6} {fb:>14.6} {:>9} {:>8} {:>7}  {}",
            "failed_share",
            "",
            "",
            "+0.001",
            if bad { "regressed" } else { "ok" }
        );
    }
    for e in END_TO_END.iter().filter(|e| e.floor > 0.0) {
        println!(
            "{} is regressed only when it is also worse by more than {} {}",
            e.name, e.floor, e.unit
        );
    }
    // Which sets were compared, for the record pasted into a PR.
    for (label, doc) in [("a", &a), ("b", &b)] {
        let host = get(doc, "host");
        let field = |k| host.and_then(|h| get(h, k)).and_then(as_str).unwrap_or("?");
        let rounds = get(doc, "rounds").and_then(as_f64).unwrap_or(0.0);
        let trials = get(doc, "workloads")
            .and_then(|ws| get(ws, NAMES[0]))
            .and_then(|w| get(w, "end_to_end"))
            .and_then(|e| get(e, "tps"))
            .and_then(|t| get(t, "trials"))
            .and_then(as_array)
            .map_or(0, <[Value]>::len);
        println!(
            "{label}: commit {} at {} ({rounds} rounds, {trials} trials per workload)",
            field("commit"),
            field("utc")
        );
    }
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_spread_and_floor() {
        let metric = |better, floor| EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.1,
            floor,
        };
        let tps = metric("higher", 0.0);
        assert_eq!(judge(&tps, 100.0, 95.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&tps, 100.0, 120.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&tps, 100.0, 85.0, 0.02), Verdict::Regressed);
        // A loss inside the sets' own spread cannot be called.
        assert_eq!(judge(&tps, 100.0, 85.0, 0.2), Verdict::Unresolved);
        assert_eq!(judge(&tps, 100.0, 99.0, 0.2), Verdict::Unresolved);
        // ... but one beyond both the bound and the spread can.
        assert_eq!(judge(&tps, 100.0, 60.0, 0.2), Verdict::Regressed);
        let p50 = metric("lower", 0.0);
        assert_eq!(judge(&p50, 100.0, 105.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&p50, 100.0, 115.0, 0.02), Verdict::Regressed);
        assert_eq!(judge(&p50, 100.0, 50.0, 0.02), Verdict::Ok);
        // setup_s: 70 µs → 100 µs is +43 % but 30 µs, under the 0.05 s
        // floor, and a 30 % spread of 70 µs is under it too.
        let setup = metric("lower", 0.05);
        assert_eq!(judge(&setup, 70e-6, 100e-6, 0.3), Verdict::Ok);
        assert_eq!(judge(&setup, 0.45, 0.49, 0.02), Verdict::Ok);
        assert_eq!(judge(&setup, 0.45, 0.52, 0.02), Verdict::Regressed);
        assert_eq!(judge(&setup, 1.0, 1.08, 0.02), Verdict::Ok);
        assert_eq!(judge(&setup, 1.0, 1.2, 0.02), Verdict::Regressed);
    }
}
