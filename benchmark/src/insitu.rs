//! The traced pass on the live runtime: the workload's configuration under
//! a fixed amount of work with [`TracedGen`] around the generator and [`TracedEngine`] around every
//! engine, reduced to the in-situ per-layer metrics — plus the two
//! untraced runs of the same work that give the tracing overhead and the
//! reference fingerprints.

use crate::metrics::{ratio, Values};
use crate::stats::interpolated_quantile_ns;
use crate::trace::{self, Trace, TracedEngine, TracedGen};
use crate::trial::{execute, outcomes, verify};
use crate::workloads::{Inspect, Workload, WORKERS};
use hcc_core::ExecutionEngine;
use hcc_runtime::RunMode;
use std::cell::Cell;

pub struct InSitu {
    pub metrics: Values,
    pub trace: Trace,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

pub fn traced_pass<W: Workload>(w: W, seed: u64, seconds: f64) -> InSitu
where
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
{
    let system = w.system();
    let per_client = ((w.traced_requests_per_client_per_second() as f64 * seconds) as u64).max(1);
    let mode = RunMode::FixedRequests(per_client);
    let slots = system.replication.max(1);
    let gens = || (w.generator(seed), w.generator(seed));

    let mut errors = Vec::new();
    let loader = w.generator(seed);
    let birth = |p| W::build_engine(&loader, p);
    let prints = |v: &[W::Engine]| v.iter().map(Inspect::fingerprint).collect::<Vec<_>>();

    // The same work untraced, checked and dropped before the next run
    // loads its engines.
    let untraced = |label: &str, workers: usize| {
        let r = execute(system.clone(), mode, workers, gens(), W::build_engine);
        let bad = verify(
            &r.engines,
            &r.backups,
            r.replication.replay_failures,
            &r.logs,
            birth,
        );
        let bad: Vec<_> = bad.into_iter().map(|e| format!("{label}: {e}")).collect();
        (r.throughput_tps, prints(&r.engines), bad)
    };

    // One worker first: the reference state, and the run that takes the
    // process's cold start (first-touch page faults as the heap grows), so
    // neither side of the overhead comparison below does.
    let (_, reference, bad) = untraced("untraced multiplexed:1", 1);
    errors.extend(bad);

    // The traced run sits between two untraced runs of the same work on
    // the same two workers: runs speed up as the process ages (the
    // allocator reuses what earlier runs freed), and the mean of the two
    // neighbours cancels that drift out of the overhead figure.
    let (tps_before, plain_prints, bad) = untraced("untraced multiplexed:2", WORKERS);
    errors.extend(bad);

    // The runtime builds a group's engines slot by slot, primary first.
    let built = Cell::new(0u32);
    let report = execute(
        system.clone(),
        mode,
        WORKERS,
        (TracedGen::new(w.generator(seed)), w.generator(seed)),
        |loader, p| {
            let slot = built.get() % slots;
            built.set(built.get() + 1);
            TracedEngine::new(W::build_engine(loader, p), slot != 0)
        },
    );
    let trace = trace::collect();
    let (attempted, failed) = outcomes(&report);
    let mut metrics = in_situ_metrics(&trace, &report);
    let tps_traced = report.throughput_tps;
    // Verified on the unwrapped engines: log replay must not add spans to
    // the trace collected above.
    let unwrap =
        |v: Vec<TracedEngine<W::Engine>>| v.into_iter().map(|t| t.inner).collect::<Vec<_>>();
    let replay_failures = report.replication.replay_failures;
    let (engines, backups) = (unwrap(report.engines), unwrap(report.backups));
    let bad = verify(&engines, &backups, replay_failures, &report.logs, birth);
    errors.extend(bad.into_iter().map(|e| format!("traced: {e}")));
    let traced_prints = prints(&engines);
    drop((engines, backups, report.logs));

    let (tps_after, after_prints, bad) = untraced("untraced multiplexed:2 (after)", WORKERS);
    errors.extend(bad);
    let tps_plain = (tps_before + tps_after) / 2.0;
    metrics.set(
        "trace.overhead_share",
        ratio(tps_plain - tps_traced, tps_plain),
    );

    // Same seed, same fixed work: where the committed state does not
    // depend on commit order, every run must end in the same state.
    if W::ORDER_INDEPENDENT {
        if traced_prints != reference {
            errors.push("traced run's fingerprints differ from the multiplexed:1 run".into());
        }
        if plain_prints != reference || after_prints != reference {
            errors.push("multiplexed:2 fingerprints differ from the multiplexed:1 run".into());
        }
    }

    InSitu {
        metrics,
        trace,
        attempted,
        failed,
        errors,
    }
}

fn in_situ_metrics<E: ExecutionEngine>(trace: &Trace, r: &hcc_runtime::RuntimeReport<E>) -> Values {
    let mut m = Values::default();
    let c = &r.clients;
    let txns = (c.committed + c.user_aborted) as f64;
    let ktxns = txns / 1e3;
    // Fixed-work mode: throughput = committed / elapsed.
    let elapsed_s = ratio(c.committed as f64, r.throughput_tps);

    let busy: u64 = r.workers.iter().map(|w| w.busy_ns).sum();
    let steps: u64 = r.workers.iter().map(|w| w.steps).sum();
    let pinned: u64 = r.workers.iter().map(|w| w.pinned_steps).sum();
    let steals: u64 = r.workers.iter().map(|w| w.steals).sum();
    let parks: u64 = r.workers.iter().map(|w| w.parks).sum();
    // Self times, so a span nested in another is never counted twice.
    let gen_ns = trace.agg_prefix("workloads.").self_ns;
    let engine_ns = trace.agg_prefix("storage.").self_ns + trace.agg_prefix("replica.").self_ns;
    // Whatever the workers spent that was neither generator nor engine:
    // mailboxes, the reactor, schedulers, coordinator, codec, log, replica
    // bookkeeping — and the tracing itself.
    let residual_ns = busy.saturating_sub(gen_ns + engine_ns);

    m.set("workloads.gen_ns_per_txn", ratio(gen_ns as f64, txns));
    m.set("runtime.busy_ns_per_txn", ratio(busy as f64, txns));
    m.set("runtime.steps_per_txn", ratio(steps as f64, txns));
    m.set(
        "runtime.residual_ns_per_step",
        ratio(residual_ns as f64, steps as f64),
    );
    m.set(
        "runtime.busy_share",
        ratio(busy as f64, r.workers.len() as f64 * elapsed_s * 1e9),
    );
    m.set("runtime.steals_per_ktxn", ratio(steals as f64, ktxns));
    m.set("runtime.parks_per_s", ratio(parks as f64, elapsed_s));
    m.set(
        "runtime.pinned_step_share",
        ratio(pinned as f64, steps as f64),
    );

    let exec = trace.agg(trace::EXEC);
    let exec_undo = trace.agg(trace::EXEC_UNDO);
    let calls = (exec.count + exec_undo.count) as f64;
    let rollback = trace.agg(trace::ROLLBACK);
    m.set("storage.engine_ns_per_txn", ratio(engine_ns as f64, txns));
    m.set(
        "storage.exec_ns_per_call",
        ratio((exec.total_ns + exec_undo.total_ns) as f64, calls),
    );
    m.set("storage.exec_calls_per_txn", ratio(calls, txns));
    m.set(
        "storage.undo_call_share",
        ratio(exec_undo.count as f64, calls),
    );
    m.set(
        "storage.rollback_ns_per_txn",
        ratio(rollback.total_ns as f64, txns),
    );
    m.set(
        "storage.rollbacks_per_ktxn",
        ratio(rollback.count as f64, ktxns),
    );
    m.set(
        "storage.forget_ns_per_txn",
        ratio(trace.agg(trace::FORGET).total_ns as f64, txns),
    );
    m.set(
        "storage.lockset_ns_per_txn",
        ratio(trace.agg(trace::LOCK_SET).total_ns as f64, txns),
    );

    let s = &r.sched;
    let executed = s.fragments_executed as f64;
    m.set(
        "core.sched.fast_path_share",
        ratio(s.fast_path as f64, s.outcomes() as f64),
    );
    m.set(
        "core.sched.spec_exec_share",
        ratio(s.speculative_executions as f64, executed),
    );
    m.set(
        "core.sched.squash_share",
        ratio(s.squashed_executions as f64, executed),
    );
    m.set(
        "core.sched.lock_wait_share",
        ratio(
            s.locks_waited as f64,
            (s.locks_waited + s.locks_granted_immediately) as f64,
        ),
    );
    m.set(
        "core.sched.deadlocks_per_ktxn",
        ratio(s.local_deadlocks as f64, ktxns),
    );
    m.set(
        "core.sched.lock_timeouts_per_ktxn",
        ratio(s.lock_timeouts as f64, ktxns),
    );
    m.set(
        "core.sched.aborted_share",
        ratio(s.aborted as f64, s.outcomes() as f64),
    );

    let d = &r.durability;
    let log_bytes: usize = r.logs.iter().flatten().map(Vec::len).sum();
    m.set(
        "storage.durable.records_per_sync",
        ratio(d.records_appended as f64, d.syncs as f64),
    );
    m.set(
        "storage.durable.log_bytes_per_txn",
        ratio(log_bytes as f64, txns),
    );
    m.set(
        "core.group_commit.held_share",
        ratio(d.results_held as f64, txns),
    );
    m.set("core.group_commit.stalled_aborts", d.stalled_aborts as f64);

    m.set(
        "core.replica.shipped_per_txn",
        ratio(r.replication.records_shipped as f64, txns),
    );
    m.set(
        "core.replica.replay_failures",
        r.replication.replay_failures as f64,
    );

    let attempts = txns + (c.retries + c.retry_exhausted) as f64;
    m.set("core.client.retry_share", ratio(c.retries as f64, attempts));
    m.set(
        "core.client.user_abort_share",
        ratio(c.user_aborted as f64, txns),
    );
    m.set(
        "core.client.failed_share",
        ratio(c.retry_exhausted as f64, txns + c.retry_exhausted as f64),
    );
    m.set(
        "core.client.p99_us",
        interpolated_quantile_ns(&c.latency, 0.99) / 1e3,
    );
    m.set(
        "core.client.p999_us",
        interpolated_quantile_ns(&c.latency, 0.999) / 1e3,
    );
    m.set("core.client.latency_samples", c.latency.count() as f64);

    // In-situ attribution closes by construction: generator + engine +
    // residual = busy, per transaction.
    let sum = m.get("workloads.gen_ns_per_txn").unwrap()
        + m.get("storage.engine_ns_per_txn").unwrap()
        + m.get("runtime.residual_ns_per_step").unwrap() * m.get("runtime.steps_per_txn").unwrap();
    let busy_per_txn = m.get("runtime.busy_ns_per_txn").unwrap();
    assert!(
        (sum - busy_per_txn).abs() <= 1e-6 * busy_per_txn.max(1.0),
        "in-situ attribution does not close: {sum} != {busy_per_txn}"
    );
    m
}
