//! Tables 1 and 2 of the paper.

use crate::{model_params, run_micro, Effort};
use hcc_common::Scheme;
use hcc_model::{fastest, recommend, ModelParams, WorkloadProfile};
use hcc_workloads::micro::MicroConfig;

/// One cell of the Table 1 grid: the measured best scheme for a workload
/// regime.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table1Cell {
    pub multi_round: bool,
    pub many_mp: bool,
    pub many_aborts: bool,
    pub many_conflicts: bool,
    pub best: &'static str,
    pub blocking_tps: f64,
    pub speculation_tps: f64,
    pub locking_tps: f64,
}

/// Reproduce Table 1: run every workload-regime combination and report
/// which scheme wins. The paper's qualitative grid uses "few/many"
/// thresholds; we instantiate few = {5% MP, 0% aborts, 0% conflicts},
/// many = {40% MP, 10% aborts, 80% conflicts}.
pub fn table1(effort: Effort) -> Vec<Table1Cell> {
    let mut cells = Vec::new();
    for multi_round in [false, true] {
        for many_mp in [false, true] {
            for many_aborts in [false, true] {
                for many_conflicts in [false, true] {
                    let micro = MicroConfig {
                        mp_fraction: if many_mp { 0.4 } else { 0.05 },
                        abort_prob: if many_aborts { 0.10 } else { 0.0 },
                        conflict_prob: if many_conflicts { 0.8 } else { 0.0 },
                        two_round: multi_round,
                        ..MicroConfig::default()
                    };
                    let b = run_micro(Scheme::Blocking, micro, effort).throughput_tps;
                    let s = run_micro(Scheme::Speculative, micro, effort).throughput_tps;
                    let l = run_micro(Scheme::Locking, micro, effort).throughput_tps;
                    let best = fastest(&[
                        (Scheme::Blocking, b),
                        (Scheme::Speculative, s),
                        (Scheme::Locking, l),
                    ])
                    .name();
                    cells.push(Table1Cell {
                        multi_round,
                        many_mp,
                        many_aborts,
                        many_conflicts,
                        best,
                        blocking_tps: b,
                        speculation_tps: s,
                        locking_tps: l,
                    });
                }
            }
        }
    }
    cells
}

/// Render the Table 1 grid in the paper's layout.
pub fn render_table1(cells: &[Table1Cell]) -> String {
    let mut out = String::new();
    out.push_str("                         |        Few Aborts         |        Many Aborts\n");
    out.push_str(
        "                         | few confl.  | many confl.  | few confl.  | many confl.\n",
    );
    out.push_str(
        "-------------------------+-------------+--------------+-------------+-------------\n",
    );
    for multi_round in [false, true] {
        for many_mp in [true, false] {
            let row_label = format!(
                "{} multi-round, {} MP",
                if multi_round { "many" } else { "few " },
                if many_mp { "many" } else { "few " },
            );
            let mut row = format!("{row_label:<25}|");
            for many_aborts in [false, true] {
                for many_conflicts in [false, true] {
                    let c = cells
                        .iter()
                        .find(|c| {
                            c.multi_round == multi_round
                                && c.many_mp == many_mp
                                && c.many_aborts == many_aborts
                                && c.many_conflicts == many_conflicts
                        })
                        .expect("cell");
                    row.push_str(&format!(" {:<12}|", c.best));
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// Table 2: the analytical-model parameters as measured on *this* system.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table2 {
    /// µs per single-partition transaction, non-speculative.
    pub t_sp_us: f64,
    /// µs per single-partition transaction with undo recording.
    pub t_sp_s_us: f64,
    /// µs for a multi-partition transaction including 2PC (measured as the
    /// blocking scheme's 100%-MP inverse throughput, the quantity the §6
    /// model uses).
    pub t_mp_us: f64,
    /// µs of partition CPU per multi-partition transaction.
    pub t_mp_c_us: f64,
    /// Network stall t_mpN = t_mp − t_mpC.
    pub t_mp_n_us: f64,
    /// Locking overhead fraction.
    pub locking_overhead: f64,
}

impl Table2 {
    /// The variables of `p`, with `t_mp_us` measured.
    fn of(p: &ModelParams, t_mp_us: f64) -> Self {
        let t_mp_c_us = p.t_mp_c.as_micros_f64();
        Table2 {
            t_sp_us: p.t_sp.as_micros_f64(),
            t_sp_s_us: p.t_sp_s.as_micros_f64(),
            t_mp_us,
            t_mp_c_us,
            t_mp_n_us: t_mp_us - t_mp_c_us,
            locking_overhead: p.locking_overhead,
        }
    }
}

/// Measure Table 2 on the simulator, mirroring how the paper measured its
/// prototype.
pub fn table2(effort: Effort) -> Table2 {
    // t_mp: run 100% multi-partition blocking; each partition handles one
    // transaction at a time, so inverse per-partition throughput is the
    // full multi-partition turnaround including 2PC resolution.
    let r = run_micro(
        Scheme::Blocking,
        MicroConfig {
            mp_fraction: 1.0,
            ..MicroConfig::default()
        },
        effort,
    );
    // Pure CPU quantities come from the (calibrated) cost model — these
    // are this system's "measured" per-transaction costs.
    Table2::of(&model_params(), 1.0 / r.throughput_tps * 1e6)
}

/// Ablation: speculation-depth limiting under abort-heavy workloads
/// (§5.3's "limit the amount of speculation to avoid wasted work"), and
/// the §5.7 adaptive advisor's accuracy.
pub fn ablation(effort: Effort) -> String {
    let mut out = String::from(
        "Speculation depth limit vs abort rate (30% multi-partition):\n\n\
         abort % |  unlimited |   depth 8 |   depth 2 |   depth 0\n\
         --------+------------+-----------+-----------+----------\n",
    );
    for abort in [0.0, 0.05, 0.10, 0.20] {
        let mut row = format!("{:>7.0} |", abort * 100.0);
        for depth in [usize::MAX, 8, 2, 0] {
            let micro = MicroConfig {
                mp_fraction: 0.3,
                abort_prob: abort,
                ..MicroConfig::default()
            };
            let r = crate::run_micro_with(Scheme::Speculative, micro, effort.window(), |sys| {
                sys.max_speculation_depth = depth;
            });
            row.push_str(&format!(" {:>10.0} |", r.throughput_tps));
        }
        row.pop();
        out.push_str(&row);
        out.push('\n');
    }

    out.push_str(
        "\nAdaptive advisor (model + runtime statistics) vs empirical winner:\n\n\
         mp %  confl  abort  rounds | advisor      | empirical best\n\
         ---------------------------+--------------+---------------\n",
    );
    let params = model_params();
    for (mp, conflict, abort, two_round) in [
        (0.05, 0.0, 0.0, false),
        (0.30, 0.0, 0.0, false),
        (0.30, 0.8, 0.0, false),
        (0.30, 0.0, 0.15, false),
        (0.30, 0.0, 0.0, true),
        (0.80, 0.0, 0.0, false),
    ] {
        let micro = MicroConfig {
            mp_fraction: mp,
            conflict_prob: conflict,
            abort_prob: abort,
            two_round,
            ..MicroConfig::default()
        };
        let best = fastest(
            &[Scheme::Blocking, Scheme::Speculative, Scheme::Locking]
                .map(|scheme| (scheme, run_micro(scheme, micro, effort).throughput_tps)),
        );
        let rec = recommend(
            &params,
            &WorkloadProfile {
                mp_fraction: mp,
                abort_rate: abort,
                conflict_rate: conflict,
                multi_round_fraction: if two_round { 1.0 } else { 0.0 },
            },
        );
        out.push_str(&format!(
            "{:>4.0}  {:>5.0}  {:>5.0}  {:>6} | {:<12} | {:<12} {}\n",
            mp * 100.0,
            conflict * 100.0,
            abort * 100.0,
            if two_round { "two" } else { "one" },
            rec.scheme,
            best,
            if rec.scheme == best { "✔" } else { " " },
        ));
    }
    out
}

/// Render Table 2: this system's measured column beside the paper's.
pub fn render_table2(t: &Table2) -> String {
    let paper = ModelParams::paper_table2();
    let p = Table2::of(&paper, paper.t_mp.as_micros_f64());
    let mut out = String::from(
        "variable | measured | paper (Table 2)\n---------+----------+----------------\n",
    );
    for (name, ours, theirs, note) in [
        ("t_sp", t.t_sp_us, p.t_sp_us, ""),
        ("t_spS", t.t_sp_s_us, p.t_sp_s_us, ""),
        ("t_mp", t.t_mp_us, p.t_mp_us, ""),
        ("t_mpC", t.t_mp_c_us, p.t_mp_c_us, ""),
        (
            "t_mpN",
            t.t_mp_n_us,
            p.t_mp_n_us,
            " (t_mp − t_mpC; raw ping RTT was 40µs)",
        ),
    ] {
        out += &format!("{name:<8} | {ours:>6.1}µs | {theirs}µs{note}\n");
    }
    let l = |t: &Table2| t.locking_overhead * 100.0;
    out + &format!("l        | {:>6.1}%  | {:.1}%\n", l(t), l(&p))
}
