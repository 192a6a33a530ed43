//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [fig4|...|fig10|table1|table2|ablation|all] [--fast] [--out DIR]
//! ```
//!
//! Paper-length windows unless `--fast`. Figures are printed as ASCII
//! charts and written as CSV under `--out` (default `results/`).

use hcc_bench::{figures, plot, tables, Effort, Figure};
use std::path::PathBuf;
use std::time::Instant;

type FigureFn = fn(Effort) -> Figure;
const FIGURES: [(&str, FigureFn); 7] = [
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
];
const TABLES: [&str; 3] = ["table1", "ablation", "table2"];

#[derive(Debug, PartialEq)]
struct Args {
    target: String,
    effort: Effort,
    out_dir: PathBuf,
}

/// Anything not understood is an error naming the input: a typo must not
/// silently run (or skip) something else.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        target: "all".to_string(),
        effort: Effort::Full,
        out_dir: PathBuf::from("results"),
    };
    let mut seen_target = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => parsed.effort = Effort::Fast,
            "--out" => {
                parsed.out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--out needs a directory")?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag {flag:?} (expected --fast or --out DIR)"
                ));
            }
            target => {
                let known = target == "all"
                    || TABLES.contains(&target)
                    || FIGURES.iter().any(|(name, _)| *name == target);
                if !known {
                    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                    return Err(format!(
                        "unknown target {target:?} (expected all, {} or {})",
                        names.join(", "),
                        TABLES.join(", ")
                    ));
                }
                if seen_target {
                    return Err(format!("more than one target: {target:?}"));
                }
                seen_target = true;
                parsed.target = target.to_string();
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        target,
        effort,
        out_dir,
    } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let wanted = |name: &str| target == "all" || target == name;

    for (name, f) in FIGURES {
        if !wanted(name) {
            continue;
        }
        let t0 = Instant::now();
        let fig = f(effort);
        println!("{}", plot::ascii_chart(&fig));
        for s in &fig.series {
            println!("    {}", plot::series_summary(s));
        }
        match plot::write_csv(&fig, &out_dir) {
            Ok(p) => println!(
                "    csv: {}   ({:.1}s)\n",
                p.display(),
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => eprintln!("    csv write failed: {e}"),
        }
    }
    if wanted("table1") {
        let t0 = Instant::now();
        let cells = tables::table1(effort);
        println!("Table 1 — best scheme per workload regime (measured)\n");
        println!("{}", tables::render_table1(&cells));
        println!("    ({:.1}s)\n", t0.elapsed().as_secs_f64());
        let _ = std::fs::create_dir_all(&out_dir);
        if let Ok(json) = serde_json::to_string_pretty(&cells) {
            let _ = std::fs::write(out_dir.join("table1.json"), json);
        }
    }
    if wanted("ablation") {
        let t0 = Instant::now();
        println!("Ablation — speculation depth limit (§5.3) and adaptive advisor (§5.7)\n");
        println!("{}", tables::ablation(effort));
        println!("    ({:.1}s)\n", t0.elapsed().as_secs_f64());
    }
    if wanted("table2") {
        let t = tables::table2(effort);
        println!("Table 2 — analytical model variables (measured on this system)\n");
        println!("{}", tables::render_table2(&t));
        let _ = std::fs::create_dir_all(&out_dir);
        if let Ok(json) = serde_json::to_string_pretty(&t) {
            let _ = std::fs::write(out_dir.join("table2.json"), json);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_accepts_the_documented_surface() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                target: "all".to_string(),
                effort: Effort::Full,
                out_dir: PathBuf::from("results"),
            })
        );
        assert_eq!(
            parse(&["--out", "/tmp/r", "fig10", "--fast"]),
            Ok(Args {
                target: "fig10".to_string(),
                effort: Effort::Fast,
                out_dir: PathBuf::from("/tmp/r"),
            })
        );
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_targets_by_name() {
        // The documented-but-never-parsed flag and the figure the paper
        // does not have: both used to run to completion in silence.
        let e = parse(&["--full"]).unwrap_err();
        assert!(e.contains("--full"), "{e}");
        let e = parse(&["fig11"]).unwrap_err();
        assert!(e.contains("fig11"), "{e}");
        assert!(parse(&["fig4", "fig5"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }
}
