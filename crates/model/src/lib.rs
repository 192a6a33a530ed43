//! The analytical throughput model of Section 6 of the paper.
//!
//! Predicts throughput (transactions/second) for the two-partition
//! microbenchmark as a function of the multi-partition fraction `f`, for
//! the blocking, local-speculation, multi-partition-speculation, and
//! locking schemes. The paper uses this model to validate the measured
//! system (Figure 10) and suggests a query planner could use it to pick a
//! scheme at runtime; `hcc-bench` does both (experiment `fig10`, and the
//! adaptive-selection ablation).
//!
//! All formulas are straight from §6; [`ModelParams::of`] derives their
//! parameters from the costs the simulator charges, as the paper measured
//! Table 2 on its own prototype.

#![forbid(unsafe_code)]

use hcc_common::{CostModel, Nanos, NetworkModel, Scheme};

/// Model parameters: the variables of the paper's Table 2, plus the
/// central coordinator's CPU, which §6 leaves out.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Time to execute a single-partition transaction non-speculatively.
    pub t_sp: Nanos,
    /// Time to execute a single-partition transaction speculatively (with
    /// undo recording).
    pub t_sp_s: Nanos,
    /// Total time for a multi-partition transaction, including resolving
    /// two-phase commit.
    pub t_mp: Nanos,
    /// CPU time used by a multi-partition transaction at one partition.
    pub t_mp_c: Nanos,
    /// Locking overhead `l`: fraction of additional execution time
    /// (Table 2: 13.2% ⇒ 0.132).
    pub locking_overhead: f64,
    /// Central-coordinator CPU per multi-partition transaction, which
    /// [`recommend`] turns into a ceiling on speculation (§5.1: the
    /// coordinator saturates). Zero disables the cap.
    pub coord_per_mp: Nanos,
}

impl ModelParams {
    /// The parameters of the system that charges `costs` and `network`, for
    /// the microbenchmark's 12 read-modify-writes (24 units, 12 a side).
    pub fn of(costs: &CostModel, network: &NetworkModel) -> Self {
        let t_mp_c = costs.fragment_cost(12, true, false, true);
        // Blocking's cycle: execute, the vote's hop, the coordinator's two
        // votes in and two decisions and the reply out, the decision's hop.
        let t_mp = t_mp_c + network.one_way + network.one_way + Nanos(costs.coord_per_msg.0 * 5);
        ModelParams {
            t_sp: costs.fragment_cost(24, false, false, false),
            t_sp_s: costs.fragment_cost(24, true, false, false),
            t_mp,
            t_mp_c,
            locking_overhead: costs.lock_overhead - 1.0,
            // The invocation, two fragments, two votes, two decisions, reply.
            coord_per_mp: Nanos(costs.coord_per_msg.0 * 8),
        }
    }

    /// The paper's measured parameters (Table 2); no coordinator cap.
    pub fn paper_table2() -> Self {
        ModelParams {
            t_sp: Nanos::from_micros(64),
            t_sp_s: Nanos::from_micros(73),
            t_mp: Nanos::from_micros(211),
            t_mp_c: Nanos::from_micros(55),
            locking_overhead: 0.132,
            coord_per_mp: Nanos::ZERO,
        }
    }

    /// Network stall time t_mpN = t_mp − t_mpC (§6.2).
    pub fn t_mp_n(&self) -> Nanos {
        self.t_mp.saturating_sub(self.t_mp_c)
    }

    fn secs(n: Nanos) -> f64 {
        n.as_secs_f64()
    }
}

/// §6.1 — blocking:
/// `throughput = 2 / (2·f·t_mp + (1−f)·t_sp)`.
pub fn blocking_throughput(p: &ModelParams, f: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    2.0 / (2.0 * f * ModelParams::secs(p.t_mp) + (1.0 - f) * ModelParams::secs(p.t_sp))
}

/// §6.2 — the number of single-partition transactions each partition can
/// hide inside one multi-partition stall:
/// `N_hidden = min((1−f)/2f, t_mpI/t_spS)`.
pub fn n_hidden(p: &ModelParams, f: f64) -> f64 {
    if f <= 0.0 {
        return 0.0;
    }
    let t_mp_l = p.t_mp_n().max(p.t_mp_c);
    let t_mp_i = t_mp_l.saturating_sub(p.t_mp_c);
    let by_supply = (1.0 - f) / (2.0 * f);
    let by_idle = ModelParams::secs(t_mp_i) / ModelParams::secs(p.t_sp_s);
    by_supply.min(by_idle)
}

/// §6.2 — local speculation (buffered single-partition speculation only):
/// `throughput = 2 / (2·f·t_mpL + ((1−f) − 2·f·N_hidden)·t_sp)`.
pub fn local_speculation_throughput(p: &ModelParams, f: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    if f == 0.0 {
        return 2.0 / ModelParams::secs(p.t_sp);
    }
    let t_mp_l = p.t_mp_n().max(p.t_mp_c);
    let nh = n_hidden(p, f);
    2.0 / (2.0 * f * ModelParams::secs(t_mp_l)
        + ((1.0 - f) - 2.0 * f * nh) * ModelParams::secs(p.t_sp))
}

/// §6.2.1 — speculating multi-partition transactions:
/// `t_period = t_mpC + N_hidden·t_spS`, replacing `t_mpL`:
/// `throughput = 2 / (2·f·t_period + ((1−f) − 2·f·N_hidden)·t_sp)`.
pub fn speculation_throughput(p: &ModelParams, f: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    if f == 0.0 {
        return 2.0 / ModelParams::secs(p.t_sp);
    }
    let nh = n_hidden(p, f);
    let t_period = ModelParams::secs(p.t_mp_c) + nh * ModelParams::secs(p.t_sp_s);
    2.0 / (2.0 * f * t_period + ((1.0 - f) - 2.0 * f * nh) * ModelParams::secs(p.t_sp))
}

/// §6.3 — locking (no conflicts):
/// `throughput = 2 / (2·f·l·t_mpC + (1−f)·l·t_spS)` where `l` is the
/// overhead multiplier (1 + locking_overhead).
pub fn locking_throughput(p: &ModelParams, f: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    let l = 1.0 + p.locking_overhead;
    // §6.3: "Since locking always requires undo buffers, we use t_spS...
    // for multi-partition transactions we use t_mpC" (no stall: locks let
    // other transactions run during the 2PC wait).
    2.0 / (2.0 * f * l * ModelParams::secs(p.t_mp_c) + (1.0 - f) * l * ModelParams::secs(p.t_sp_s))
}

/// Which scheme the model predicts to be fastest at a given `f` — the
/// paper's "query executor might record statistics at runtime and use a
/// model like that presented in Section 6 to make the best choice" (§5.7).
pub fn best_scheme(p: &ModelParams, f: f64) -> Scheme {
    fastest(&[
        (Scheme::Blocking, blocking_throughput(p, f)),
        (Scheme::Speculative, speculation_throughput(p, f)),
        (Scheme::Locking, locking_throughput(p, f)),
    ])
}

/// The scheme of the highest throughput, measured or predicted; ties go to
/// the first of speculation, locking, OCC and blocking.
pub fn fastest(candidates: &[(Scheme, f64)]) -> Scheme {
    use Scheme::{Blocking, Locking, Occ, Speculative};
    const TIES: [Scheme; 4] = [Speculative, Locking, Occ, Blocking];
    let rank = |s: Scheme| TIES.iter().position(|&t| t == s);
    candidates
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(rank(b.0).cmp(&rank(a.0))))
        .expect("at least one candidate")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::paper_table2()
    }

    #[test]
    fn zero_mp_fraction_all_equal_except_locking_overhead() {
        // At f = 0 blocking and speculation both run single-partition
        // transactions at t_sp: 2 partitions / 64 µs ≈ 31 250 tps.
        let b = blocking_throughput(&p(), 0.0);
        let s = speculation_throughput(&p(), 0.0);
        let ls = local_speculation_throughput(&p(), 0.0);
        assert!((b - 31_250.0).abs() < 1.0, "{b}");
        assert!((s - b).abs() < 1e-6);
        assert!((ls - b).abs() < 1e-6);
        // Locking pays undo + lock overhead even at f = 0 *in the model*
        // (the real system's fast path avoids it; the paper's model curve
        // shows the same gap in Figure 10).
        let l = locking_throughput(&p(), 0.0);
        assert!(l < b);
        assert!((l - 2.0 / (1.132 * 73e-6)).abs() < 1.0);
    }

    #[test]
    fn full_mp_limits() {
        // f = 1: blocking = 1/t_mp ≈ 4 739; speculation = 1/t_mpC ≈ 18 182;
        // locking = 1/(l·t_mpC) ≈ 16 062.
        let b = blocking_throughput(&p(), 1.0);
        let s = speculation_throughput(&p(), 1.0);
        let l = locking_throughput(&p(), 1.0);
        assert!((b - 1.0 / 211e-6).abs() < 1.0, "{b}");
        assert!((s - 1.0 / 55e-6).abs() < 1.0, "{s}");
        assert!((l - 1.0 / (1.132 * 55e-6)).abs() < 1.0, "{l}");
    }

    #[test]
    fn blocking_decreases_monotonically() {
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let f = i as f64 / 100.0;
            let t = blocking_throughput(&p(), f);
            assert!(t <= prev + 1e-9);
            prev = t;
        }
    }

    #[test]
    fn n_hidden_regimes() {
        // Small f: plenty of idle, limited by... supply = (1-f)/2f = 49.5
        // at f = 0.01, idle = (156 − 55)/73 ≈ 1.38 ⇒ idle-limited.
        let nh = n_hidden(&p(), 0.01);
        assert!((nh - (156.0 - 55.0) / 73.0).abs() < 1e-2, "{nh}");
        // Large f: supply-limited. f = 0.9 ⇒ (1−0.9)/1.8 ≈ 0.0556.
        let nh = n_hidden(&p(), 0.9);
        assert!((nh - 0.1 / 1.8).abs() < 1e-6);
        // f = 0 ⇒ nothing to hide behind.
        assert_eq!(n_hidden(&p(), 0.0), 0.0);
    }

    #[test]
    fn speculation_beats_blocking_everywhere_beyond_zero() {
        for i in 1..=100 {
            let f = i as f64 / 100.0;
            assert!(
                speculation_throughput(&p(), f) > blocking_throughput(&p(), f),
                "f={f}"
            );
        }
    }

    #[test]
    fn mp_speculation_beats_local_speculation_at_high_f() {
        // §6.4: "speculating multi-partition transactions leads to a
        // substantial improvement when they comprise a large fraction of
        // the workload."
        let s = speculation_throughput(&p(), 0.8);
        let ls = local_speculation_throughput(&p(), 0.8);
        assert!(s > 1.5 * ls, "spec {s} vs local {ls}");
        // And they nearly coincide while the stall is fully hidden (low f).
        let s = speculation_throughput(&p(), 0.02);
        let ls = local_speculation_throughput(&p(), 0.02);
        assert!((s - ls) / s < 0.05, "{s} vs {ls}");
    }

    #[test]
    fn speculation_beats_locking_in_paper_parameter_range() {
        // With Table 2 parameters the model predicts speculation ≥ locking
        // for all f (the measured crossover in Fig. 4 comes from the
        // coordinator bottleneck, which §6 deliberately excludes).
        for i in 0..=100 {
            let f = i as f64 / 100.0;
            assert!(
                speculation_throughput(&p(), f) >= locking_throughput(&p(), f) * 0.999,
                "f={f}"
            );
        }
    }

    #[test]
    fn locking_beats_blocking_for_mp_heavy_loads() {
        assert!(locking_throughput(&p(), 0.5) > blocking_throughput(&p(), 0.5));
        assert!(locking_throughput(&p(), 1.0) > blocking_throughput(&p(), 1.0));
        // ...but loses at f = 0 where blocking rides the fast path.
        assert!(locking_throughput(&p(), 0.0) < blocking_throughput(&p(), 0.0));
    }

    #[test]
    fn local_speculation_kink_at_supply_equals_idle() {
        // The paper: "the throughput will drop rapidly as f increases past
        // t_spS / (2·t_mpI + t_spS)". With Table 2: 73/(2·101+73) ≈ 0.265.
        let f_kink = 73.0 / (2.0 * 101.0 + 73.0);
        let before = local_speculation_throughput(&p(), f_kink - 0.05);
        let at = local_speculation_throughput(&p(), f_kink);
        let after = local_speculation_throughput(&p(), f_kink + 0.05);
        let slope_before = (before - at) / 0.05;
        let slope_after = (at - after) / 0.05;
        assert!(
            slope_after > slope_before * 1.5,
            "kink: {slope_before} vs {slope_after}"
        );
    }

    #[test]
    fn best_scheme_predictions() {
        assert_eq!(best_scheme(&p(), 0.05), Scheme::Speculative);
        assert_eq!(best_scheme(&p(), 0.5), Scheme::Speculative);
    }

    #[test]
    fn default_calibration_matches_table2() {
        // The derivation from the simulator's default costs against the
        // paper's column: the CPU variables land on it, t_mpC within 15 %
        // above it, and the network stall short of it — two 20 µs hops and
        // five 12 µs coordinator messages, 100 µs against the paper's 156.
        let d = ModelParams::of(&CostModel::default(), &NetworkModel::default());
        let paper = p();
        assert_eq!(d.t_sp, paper.t_sp);
        assert!(
            (d.t_sp_s.as_micros_f64() - 73.0).abs() < 0.5,
            "{}",
            d.t_sp_s
        );
        let t_mp_c = d.t_mp_c.as_micros_f64();
        assert!((55.0..=55.0 * 1.15).contains(&t_mp_c), "{}", d.t_mp_c);
        assert!((d.locking_overhead - paper.locking_overhead).abs() < 1e-9);
        let stall = d.t_mp_n().as_micros_f64() / paper.t_mp_n().as_micros_f64();
        assert!(
            (0.5..=1.0).contains(&stall),
            "t_mpN {} vs 156 µs",
            d.t_mp_n()
        );
        // t_mp: 2 hops of 20 µs and 5 coordinator messages of 12 µs.
        assert_eq!(d.t_mp, d.t_mp_c + Nanos::from_micros(100));
        assert_eq!(d.coord_per_mp, Nanos::from_micros(96));
    }

    #[test]
    fn fastest_breaks_ties_in_the_advisors_order() {
        let all = |t: f64| {
            [
                (Scheme::Blocking, t),
                (Scheme::Occ, t),
                (Scheme::Locking, t),
                (Scheme::Speculative, t),
            ]
        };
        assert_eq!(fastest(&all(1.0)), Scheme::Speculative);
        assert_eq!(fastest(&all(1.0)[..3]), Scheme::Locking);
        assert_eq!(fastest(&all(1.0)[..2]), Scheme::Occ);
        assert_eq!(
            fastest(&[(Scheme::Speculative, 1.0), (Scheme::Blocking, 2.0)]),
            Scheme::Blocking
        );
    }

    #[test]
    fn t_mp_n_derivation() {
        // §6.2: t_mpN = t_mp − t_mpC = 211 − 55 = 156 µs.
        assert_eq!(p().t_mp_n(), Nanos::from_micros(156));
    }
}

/// Runtime workload statistics, as a query executor would collect them
/// (§5.7: "we imagine that a query executor might record statistics at
/// runtime and use a model like that presented in Section 6 below to make
/// the best choice").
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadProfile {
    /// Fraction of transactions that are multi-partition.
    pub mp_fraction: f64,
    /// Fraction of transactions that abort (user aborts).
    pub abort_rate: f64,
    /// Fraction of lock acquisitions that conflict (wait), under locking —
    /// or an estimate from data-access overlap.
    pub conflict_rate: f64,
    /// Fraction of multi-partition transactions needing more than one
    /// round of communication.
    pub multi_round_fraction: f64,
}

/// Scheme recommendation with the adjusted scores behind it.
#[derive(Debug, Clone, Copy)]
pub struct Recommendation {
    /// The [`fastest`] of `scores`.
    pub scheme: Scheme,
    /// Every scheme's adjusted score, in [`Scheme::ALL`] order.
    pub scores: [(Scheme, f64); 4],
}

impl Recommendation {
    /// The adjusted score of an arbitrary scheme (for hysteresis
    /// comparisons against the incumbent).
    pub fn score_of(&self, scheme: Scheme) -> f64 {
        self.scores[scheme as usize].1
    }
}

/// Pick a concurrency control scheme from measured statistics — Table 1 as
/// an executable policy.
///
/// Scores start from the §6 model and are discounted by the effects the
/// model omits:
/// * **speculation** pays cascades: each abort squashes `t_mp / t_spS`
///   transactions, shrinking its useful-work fraction to
///   `1 / (1 + abort_rate · t_mp / t_spS)`; multi-round transactions
///   barely speculate at all (§5.4), so their share is served at blocking
///   speed. The simulator squashes more — 16–20 executions per
///   multi-partition abort at 40 clients, the whole queue speculated
///   behind an abort decided at another participant (nothing is
///   speculated past a fragment that voted abort here), a depth the model
///   does not know — so with aborts the score stays above the measured
///   throughput (`tests/adaptive_advisor.rs`: 1.3× at mp 0.1 with 15 %
///   aborts and 80 % conflicts, 1.7× at 0.6 with 5 % aborts, 1.9× at 0.3
///   with 15 %). It is there to rank, not to predict: a waste
///   6 % larger (`1 + t_mpN / t_spS`) already sends the golden table's
///   adaptive blocking row into a mixed-scheme stall;
/// * **locking** pays conflicts: waits serialize transactions behind
///   stalled lock holders, pushing throughput toward blocking as the
///   conflict rate grows (§5.2);
/// * **occ** (the §5.7 extension) pays the same tracking overhead as
///   locking and avoids the 2PC stall like it, but every abort throws
///   away a completed optimistic execution (undo + full re-execute, twice
///   `1 + N_hidden` transactions), and multi-round transactions
///   serialize at blocking speed — so it trails locking except where
///   conflicts (which barely touch validation on mostly single-partition
///   loads, unlike lock waits) pull locking down;
/// * **blocking** is already the floor the others degrade to.
pub fn recommend(p: &ModelParams, w: &WorkloadProfile) -> Recommendation {
    let f = w.mp_fraction.clamp(0.0, 1.0);
    let blocking = blocking_throughput(p, f);

    // Speculation: multi-round share behaves like blocking; single-round
    // share speculates but wastes work on cascades.
    let mut spec_single_round = speculation_throughput(p, f);
    if p.coord_per_mp > Nanos::ZERO && f > 0.0 {
        // Blocking and locking never saturate the coordinator (blocking is
        // stall-bound below the ceiling; locking bypasses it entirely),
        // but speculation runs straight into it.
        spec_single_round = spec_single_round.min(1.0 / (f * ModelParams::secs(p.coord_per_mp)));
    }
    // An abort at the head throws away all the partition ran from the
    // start of the aborting multi-partition transaction to its decision
    // (its fragment, then speculation through its stall: t_mp of work).
    // Every squashed multi-partition transaction votes again through the
    // coordinator, so the discount lowers its ceiling too: it comes after
    // the cap.
    let squashed_per_abort = ModelParams::secs(p.t_mp) / ModelParams::secs(p.t_sp_s);
    spec_single_round /= 1.0 + w.abort_rate * squashed_per_abort;
    let speculation =
        w.multi_round_fraction * blocking + (1.0 - w.multi_round_fraction) * spec_single_round;

    // Locking: interpolate toward its conflicted floor as conflicts grow.
    // Figure 5 shows fully-conflicted locking settling near 1.5–2× the
    // blocking level (each transaction conflicts at only one partition,
    // "so it still performs some work concurrently"), never below it.
    let lock_free = locking_throughput(p, f);
    let conflicted_floor = (1.5 * blocking).min(lock_free);
    let locking = lock_free * (1.0 - w.conflict_rate) + conflicted_floor * w.conflict_rate;

    // OCC: the same overhead structure as locking (read/write-set tracking
    // ≈ the lock table's `l`, no stall during 2PC), degraded by the
    // effects validation adds. Aborts waste a *completed* optimistic
    // execution plus its rollback — twice the `1 + N_hidden` transactions
    // of one stall. Conflicts only bite when concurrent overlap reaches
    // validation, a much weaker effect than lock waits on these
    // single-threaded partitions — a mild linear discount. Multi-round
    // transactions get no optimism across rounds and run at blocking
    // speed, as with speculation.
    let nh = n_hidden(p, f);
    let occ_abort_waste = 1.0 / (1.0 + w.abort_rate * (1.0 + nh) * 2.0);
    let occ_single_round = lock_free * occ_abort_waste * (1.0 - 0.1 * w.conflict_rate);
    let occ = w.multi_round_fraction * blocking + (1.0 - w.multi_round_fraction) * occ_single_round;

    // Ties favor the paper's three schemes over the OCC extension (equal
    // scores are common: OCC's clean-workload score coincides with
    // locking's by construction).
    let scores = Scheme::ALL.map(|s| (s, [blocking, speculation, locking, occ][s as usize]));
    Recommendation {
        scheme: fastest(&scores),
        scores,
    }
}

#[cfg(test)]
mod advisor_tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::paper_table2()
    }

    #[test]
    fn clean_single_round_workloads_pick_speculation() {
        // Table 1: "Speculation is preferred when there are few
        // multi-round transactions and few aborts."
        for f in [0.05, 0.2, 0.5, 0.9] {
            let w = WorkloadProfile {
                mp_fraction: f,
                ..Default::default()
            };
            assert_eq!(recommend(&p(), &w).scheme, Scheme::Speculative, "f={f}");
        }
    }

    #[test]
    fn multi_round_workloads_pick_locking() {
        // Table 1: "Many multi-round xactions → Locking" in every column.
        for (aborts, conflicts) in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.9), (0.2, 0.9)] {
            let w = WorkloadProfile {
                mp_fraction: 0.3,
                abort_rate: aborts,
                conflict_rate: conflicts,
                multi_round_fraction: 0.9,
            };
            assert_eq!(
                recommend(&p(), &w).scheme,
                Scheme::Locking,
                "aborts={aborts} conflicts={conflicts}"
            );
        }
    }

    #[test]
    fn abort_heavy_workloads_abandon_speculation() {
        let w = WorkloadProfile {
            mp_fraction: 0.4,
            abort_rate: 0.25,
            ..Default::default()
        };
        let r = recommend(&p(), &w);
        assert_ne!(r.scheme, Scheme::Speculative);
        assert!(r.score_of(Scheme::Speculative) < r.score_of(Scheme::Locking));
    }

    #[test]
    fn abort_heavy_and_conflicted_tends_toward_blocking() {
        // Table 1's bottom-right corner: few MP + many aborts + many
        // conflicts → blocking.
        let w = WorkloadProfile {
            mp_fraction: 0.03,
            abort_rate: 0.30,
            conflict_rate: 0.95,
            multi_round_fraction: 0.0,
        };
        let r = recommend(&p(), &w);
        assert!(
            r.scheme == Scheme::Blocking
                || r.score_of(Scheme::Blocking) * 1.05 > r.score_of(Scheme::Speculative),
            "{r:?}"
        );
    }

    #[test]
    fn conflicts_do_not_move_speculation_score() {
        let base = WorkloadProfile {
            mp_fraction: 0.3,
            ..Default::default()
        };
        let conflicted = WorkloadProfile {
            conflict_rate: 0.9,
            ..base
        };
        let a = recommend(&p(), &base);
        let b = recommend(&p(), &conflicted);
        assert_eq!(
            a.score_of(Scheme::Speculative),
            b.score_of(Scheme::Speculative)
        );
        assert!(b.score_of(Scheme::Locking) < a.score_of(Scheme::Locking));
    }

    #[test]
    fn scores_are_all_positive_and_finite() {
        for f in [0.0, 0.5, 1.0] {
            for a in [0.0, 0.5] {
                for c in [0.0, 1.0] {
                    let w = WorkloadProfile {
                        mp_fraction: f,
                        abort_rate: a,
                        conflict_rate: c,
                        multi_round_fraction: 0.5,
                    };
                    let r = recommend(&p(), &w);
                    for (_, s) in r.scores {
                        assert!(s.is_finite() && s > 0.0, "{r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn occ_is_a_real_candidate_with_calibrated_degradations() {
        // Clean workload: OCC's score coincides with locking's (same
        // overhead, no stall) and the tie goes to locking.
        let clean = WorkloadProfile {
            mp_fraction: 0.3,
            ..Default::default()
        };
        let r = recommend(&p(), &clean);
        assert_eq!(r.score_of(Scheme::Occ), r.score_of(Scheme::Locking));
        assert_ne!(r.scheme, Scheme::Occ);
        // Conflicts pull locking down much faster than OCC (validation
        // rarely sees the overlap lock waits serialize on).
        let conflicted = WorkloadProfile {
            mp_fraction: 0.3,
            conflict_rate: 0.8,
            ..Default::default()
        };
        let rc = recommend(&p(), &conflicted);
        assert!(
            rc.score_of(Scheme::Occ) > rc.score_of(Scheme::Locking) * 0.95,
            "{rc:?}"
        );
        // Aborts hit OCC hard: each wastes a *complete* optimistic
        // execution.
        let aborty = WorkloadProfile {
            mp_fraction: 0.3,
            abort_rate: 0.15,
            ..Default::default()
        };
        let ra = recommend(&p(), &aborty);
        assert!(
            ra.score_of(Scheme::Occ) < ra.score_of(Scheme::Locking) * 0.75,
            "{ra:?}"
        );
        assert_eq!(ra.scheme, Scheme::Locking);
    }

    #[test]
    fn aborts_discount_speculation_below_the_coordinator_ceiling() {
        // On the simulator's parameters, 60 % multi-partition work pins
        // speculation at the coordinator's ceiling, 1/(0.6 · 96 µs); 5 %
        // aborts still cost it the pick (measured: locking 17,660 tps,
        // speculation 8,056).
        let derived = ModelParams::of(&CostModel::default(), &NetworkModel::default());
        let ceiling = 1.0 / (0.6 * 96e-6);
        let clean = WorkloadProfile {
            mp_fraction: 0.6,
            ..Default::default()
        };
        assert!((recommend(&derived, &clean).score_of(Scheme::Speculative) - ceiling).abs() < 1.0);
        let aborty = WorkloadProfile {
            abort_rate: 0.05,
            ..clean
        };
        let r = recommend(&derived, &aborty);
        assert!(r.score_of(Scheme::Speculative) < 0.95 * ceiling, "{r:?}");
        assert_eq!(r.scheme, Scheme::Locking);
    }

    #[test]
    fn recommendation_scheme_enum_round_trip() {
        let w = WorkloadProfile {
            mp_fraction: 0.3,
            ..Default::default()
        };
        let r = recommend(&p(), &w);
        assert_eq!(r.scheme, Scheme::Speculative);
        assert_eq!(r.scores.map(|s| s.0), Scheme::ALL);
        for (scheme, score) in r.scores {
            assert_eq!(r.score_of(scheme), score);
        }
    }
}
