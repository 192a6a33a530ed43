//! One untraced trial: a few measurement windows on the live runtime, each
//! a fresh set-up → warm-up → timed window → correctness check, then a
//! series of timed set-ups, reduced to the end-to-end metrics by their
//! medians.

use crate::stats::{interpolated_quantile_ns, median};
use crate::workloads::{Inspect, Workload, WORKERS};
use hcc_common::PartitionId;
use hcc_core::{recover_partition, ExecutionEngine, RequestGenerator};
use hcc_runtime::{run, BackendChoice, RunMode, RuntimeConfig, RuntimeReport};
use std::time::{Duration, Instant};

/// Windows per trial. A metric's value is the median over them, so one
/// slow host phase inside a trial does not move it. Nine, because in a
/// quiet host phase the spread between trials is all window noise (window
/// sd ~3.5 %, trial medians' sd ~2 % at six windows) and an odd count
/// makes the median a window that was actually measured.
pub const WINDOWS: u32 = 9;
/// Warm-up before every window: caches, undo pools and the reactor's
/// queues reach steady state; TPC-C tables take their first inserts.
pub const WARMUP: Duration = Duration::from_millis(300);
/// Set-ups timed per trial, all after the last window and all the same
/// way ([`setup`]): cheap ones (the micro's is ~70 µs) are noisy one at a
/// time, so up to fifteen — but for at most [`SETUP_BUDGET`], which TPC-C's
/// 0.45 s loads fill with five.
pub const SETUP_SAMPLES: usize = 15;
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Run one configuration on `multiplexed:workers`: `gen` drives the
/// clients, `loader` (a second generator of the same seed, as every caller
/// of the runtime keeps) loads each partition's engine through `build`.
pub fn execute<G, L, E>(
    system: hcc_common::SystemConfig,
    mode: RunMode,
    workers: usize,
    (gen, loader): (G, L),
    build: impl Fn(&L, PartitionId) -> E,
) -> RuntimeReport<E>
where
    G: RequestGenerator<Engine = E> + Send + 'static,
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send + 'static,
    E::Output: Send + 'static,
{
    let cfg = RuntimeConfig {
        system,
        backend: BackendChoice::Multiplexed { workers },
        mode,
        failure: None,
    };
    run(cfg, gen, |p| build(&loader, p))
}

/// One set-up, timed: what a run does before its first request — build
/// the generator pair and load every engine the runtime would (primaries
/// and backups) — then drop them. Seconds.
pub fn setup<W: Workload>(w: W, seed: u64) -> f64 {
    let system = w.system();
    let started = Instant::now();
    let (gen, loader) = (w.generator(seed), w.generator(seed));
    let engines: Vec<W::Engine> = (0..system.partitions)
        .flat_map(|p| (0..system.replication.max(1)).map(move |_| PartitionId(p)))
        .map(|p| W::build_engine(&loader, p))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    drop((gen, engines));
    elapsed
}

/// The correctness checks every run must pass; returns one line per
/// violated check (empty = correct).
///
/// * no engine leaked an undo buffer, and every store is consistent;
/// * replicated: every backup's fingerprint equals its primary's and no
///   record failed to replay;
/// * durable: replaying the flushed log bytes onto a birth-state engine
///   reproduces the primary — no acknowledged commit is missing from the
///   log.
pub fn verify<E>(
    primaries: &[E],
    backups: &[E],
    replay_failures: u64,
    logs: &[Option<Vec<u8>>],
    birth: impl Fn(PartitionId) -> E,
) -> Vec<String>
where
    E: ExecutionEngine + Inspect,
{
    let mut errors = Vec::new();
    let slots = if primaries.is_empty() {
        0
    } else {
        backups.len() / primaries.len()
    };
    for (i, e) in primaries.iter().enumerate() {
        if e.live_undo_buffers() != 0 {
            errors.push(format!(
                "P{i}: {} undo buffers leaked",
                e.live_undo_buffers()
            ));
        }
        if let Err(why) = e.check_consistency() {
            errors.push(format!("P{i}: {why}"));
        }
        // Backups arrive in (group, slot) order.
        for (s, b) in backups.iter().skip(i * slots).take(slots).enumerate() {
            if b.fingerprint() != e.fingerprint() {
                errors.push(format!("P{i}: backup {s} diverged from its primary"));
            }
            if let Err(why) = b.check_consistency() {
                errors.push(format!("P{i} backup {s}: {why}"));
            }
        }
        if let Some(Some(log)) = logs.get(i) {
            match recover_partition(birth(PartitionId(i as u32)), 0, log) {
                Ok(out) if out.engine.fingerprint() == e.fingerprint() => {}
                Ok(out) => errors.push(format!(
                    "P{i}: log replay ({} records, torn tail {}) does not reproduce the primary",
                    out.records_applied, out.torn_tail
                )),
                Err(why) => errors.push(format!("P{i}: log replay failed: {why}")),
            }
        }
    }
    if replay_failures != 0 {
        errors.push(format!("{replay_failures} backup replay failures"));
    }
    errors
}

/// Final outcomes of a run: every request that reached one, and those
/// that failed (abandoned after the retry budget). User aborts — TPC-C's
/// invalid item, the micro's `abort_prob` — are outcomes, not failures.
pub fn outcomes<E: ExecutionEngine>(r: &RuntimeReport<E>) -> (u64, u64) {
    let c = &r.clients;
    (
        c.committed + c.user_aborted + c.retry_exhausted,
        c.retry_exhausted,
    )
}

/// The result of one untraced trial.
pub struct Trial {
    pub tps: f64,
    pub p50_us: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-window raw values, for the record.
    pub windows: Vec<WindowRow>,
    /// Every timed set-up; `setup_s` is their median.
    pub setups: Vec<f64>,
}

pub struct WindowRow {
    pub tps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub latency_samples: u64,
}

/// Measure `seconds` of window time in [`WINDOWS`] equal windows.
pub fn timed<W: Workload>(w: W, seed: u64, seconds: f64) -> Trial
where
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
{
    let mode = RunMode::Timed {
        warmup: WARMUP,
        measure: Duration::from_secs_f64(seconds / f64::from(WINDOWS)),
    };
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    for i in 0..WINDOWS {
        let r = &execute(
            w.system(),
            mode,
            WORKERS,
            (w.generator(seed), w.generator(seed)),
            W::build_engine,
        );
        let loader = w.generator(seed);
        let bad = verify(
            &r.engines,
            &r.backups,
            r.replication.replay_failures,
            &r.logs,
            |p| W::build_engine(&loader, p),
        );
        let (a, f) = outcomes(r);
        attempted += a;
        // A window whose state is wrong did not complete its work: count
        // everything it attempted as failed.
        failed += if bad.is_empty() { f } else { a };
        errors.extend(bad.into_iter().map(|e| format!("window {i}: {e}")));
        let lat = &r.clients.latency;
        rows.push(WindowRow {
            tps: r.throughput_tps,
            p50_us: interpolated_quantile_ns(lat, 0.5) / 1e3,
            p99_us: interpolated_quantile_ns(lat, 0.99) / 1e3,
            latency_samples: lat.count(),
        });
    }
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < SETUP_SAMPLES && started.elapsed() < SETUP_BUDGET {
        setups.push(setup(w, seed));
    }
    let col = |f: fn(&WindowRow) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    Trial {
        tps: col(|r| r.tps),
        p50_us: col(|r| r.p50_us),
        setup_s: median(&setups),
        attempted,
        failed,
        errors,
        windows: rows,
        setups,
    }
}
