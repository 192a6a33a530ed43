//! The golden table: fixed-seed simulator runs over a hand-picked slice of
//! the feature product, one TSV line each, in `crates/bench/goldens.tsv`.
//!
//! A run is a pure function of `(config, seed)`, so a change that moves a
//! line changed what the system does, not how fast the host does it. The
//! `golden_capture` binary writes [`table`] to [`PATH`]; the `goldens`
//! test runs every point again through [`assert_reproduced`], which names
//! each moved value by key and column. A change that moves behaviour shows
//! `git diff` of the file, with the cause named.
//!
//! Every run must also pass the table's checks: each live backup ends in
//! its primary's state, which — the backup re-executing the commit order
//! one transaction at a time (§3.2) — doubles as a serializability check;
//! no replica replay fails; no decision is stray without a kill; no
//! `CrossCoordinator` abort happens under sequencing; and pinned blocking
//! speculates nothing.

use hcc_common::{
    AdaptiveConfig, DurabilityConfig, FailAt, FailurePlan, Nanos, PartitionId, Scheme, SystemConfig,
};
use hcc_core::ExecutionEngine;
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_storage::tpcc::TpccScale;
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};
use hcc_workloads::ycsb::{YcsbEConfig, YcsbEWorkload};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The committed table.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens.tsv");

/// The golden points, in table order. A key is the point's definition:
/// workload (micro; scan: YCSB-E with inserts and deletes; tpcc:
/// [`TpccScale::tiny`], 4 warehouses) / scheme / partitions (`p2`: 24
/// clients, 30 % multi-partition, seed 0xD5; `p4`: 32 clients, 40 %, seed
/// 0xE8) / replication / durability's `sync_latency` in µs (`d0`: off) /
/// coordinator shards / sequencing / adaptive (`Model { margin: 0.1,
/// window: 64 }` from the scheme) / the shipped commit record at which
/// P1's primary dies (`kill0`: none), then optionally `local` (local
/// speculation only) or `depthN` (`max_speculation_depth`). Every run is
/// the simulator with a co-located shadow at replication 1, a 20 ms
/// warm-up and a 100 ms window.
pub const POINTS: [&str; 43] = [
    // The first seven: each scheme on the base, then sequencing on the
    // sharded base (pinned locking is not sequenced: its clients run 2PC).
    "micro/blocking/p2/r1/d0/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r1/d0/sh1/seq0/ad0/kill0",
    "micro/locking/p2/r1/d0/sh1/seq0/ad0/kill0",
    "micro/occ/p2/r1/d0/sh1/seq0/ad0/kill0",
    "micro/blocking/p4/r1/d0/sh2/seq1/ad0/kill0",
    "micro/speculation/p4/r1/d0/sh2/seq1/ad0/kill0",
    "micro/occ/p4/r1/d0/sh2/seq1/ad0/kill0",
    // Replication.
    "micro/blocking/p2/r2/d0/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r2/d0/sh1/seq0/ad0/kill0",
    "micro/locking/p2/r2/d0/sh1/seq0/ad0/kill0",
    "micro/occ/p2/r2/d0/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r3/d0/sh1/seq0/ad0/kill0",
    "micro/locking/p2/r3/d0/sh1/seq0/ad0/kill0",
    // Durability alone, then with a backup: `tpcc_durable`'s shape.
    "micro/speculation/p2/r1/d1/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r1/d30/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r1/d100/sh1/seq0/ad0/kill0",
    "micro/locking/p2/r1/d100/sh1/seq0/ad0/kill0",
    "micro/blocking/p2/r2/d100/sh1/seq0/ad0/kill0",
    "micro/speculation/p2/r2/d100/sh1/seq0/ad0/kill0",
    "micro/locking/p2/r2/d100/sh1/seq0/ad0/kill0",
    "micro/occ/p2/r2/d100/sh1/seq0/ad0/kill0",
    // Failover.
    "micro/blocking/p2/r2/d0/sh1/seq0/ad0/kill300",
    "micro/speculation/p2/r2/d0/sh1/seq0/ad0/kill300",
    "micro/locking/p2/r2/d0/sh1/seq0/ad0/kill300",
    "micro/occ/p2/r2/d0/sh1/seq0/ad0/kill300",
    "micro/speculation/p2/r3/d0/sh1/seq0/ad0/kill300",
    "micro/speculation/p2/r2/d100/sh1/seq0/ad0/kill300",
    "micro/speculation/p4/r2/d0/sh2/seq1/ad0/kill300",
    // Unsequenced shards: the `CrossCoordinator` expiry path.
    "micro/speculation/p4/r1/d0/sh2/seq0/ad0/kill0",
    "micro/blocking/p4/r1/d0/sh2/seq0/ad0/kill0",
    // Adaptive, alone and sequenced. The model keeps locking and
    // speculation on this workload and switches blocking away.
    "micro/locking/p2/r1/d0/sh1/seq0/ad1/kill0",
    "micro/speculation/p2/r1/d0/sh1/seq0/ad1/kill0",
    "micro/blocking/p2/r1/d0/sh1/seq0/ad1/kill0",
    "micro/locking/p4/r1/d0/sh2/seq1/ad1/kill0",
    // Scans and TPC-C.
    "scan/locking/p2/r1/d0/sh1/seq0/ad0/kill0",
    "scan/speculation/p2/r1/d0/sh1/seq0/ad0/kill0",
    "tpcc/blocking/p2/r1/d0/sh1/seq0/ad0/kill0",
    "tpcc/speculation/p2/r1/d0/sh1/seq0/ad0/kill0",
    "tpcc/locking/p2/r1/d0/sh1/seq0/ad0/kill0",
    "tpcc/occ/p2/r1/d0/sh1/seq0/ad0/kill0",
    "tpcc/speculation/p2/r2/d100/sh1/seq0/ad0/kill0",
    // §5.3 / Figure 10's knobs.
    "micro/speculation/p2/r1/d0/sh1/seq0/ad0/kill0/local",
    "micro/speculation/p2/r1/d0/sh1/seq0/ad0/kill0/depth2",
];

/// Apply one of a key's trailing knobs to `system`: `local` (local
/// speculation only) or `depthN` (`max_speculation_depth`). False if
/// `knob` is neither.
pub fn apply_knob(system: &mut SystemConfig, knob: &str) -> bool {
    if knob == "local" {
        system.local_speculation_only = true;
    } else if let Some(depth) = knob.strip_prefix("depth").and_then(|d| d.parse().ok()) {
        system.max_speculation_depth = depth;
    } else {
        return false;
    }
    true
}

/// One row: (column, value) pairs, the key first.
type Row = Vec<(String, String)>;

/// Run the point `key` names and check it.
fn run_point(key: &str) -> Row {
    let mut fields = key.split('/');
    let workload = fields.next();
    let scheme = match fields.next() {
        Some("blocking") => Scheme::Blocking,
        Some("speculation") => Scheme::Speculative,
        Some("locking") => Scheme::Locking,
        Some("occ") => Scheme::Occ,
        _ => panic!("{key}: no such scheme"),
    };
    let mut number = |prefix: &str| -> u64 {
        let n = fields
            .next()
            .and_then(|f| f.strip_prefix(prefix)?.parse().ok());
        n.unwrap_or_else(|| panic!("{key}: {prefix}N"))
    };
    let partitions = number("p") as u32;
    let (clients, mp_fraction, seed) = match partitions {
        2 => (24, 0.3, 0xD5),
        _ => (32, 0.4, 0xE8),
    };
    let mut system = SystemConfig::new(scheme)
        .with_partitions(partitions)
        .with_clients(clients)
        .with_seed(seed)
        .with_replication(number("r") as u32);
    let sync_us = number("d");
    if sync_us > 0 {
        system = system.with_durability(DurabilityConfig {
            sync_latency: Nanos::from_micros(sync_us),
            ..Default::default()
        });
    }
    system = system
        .with_coordinators(number("sh") as u32)
        .with_sequencing(number("seq") == 1);
    if number("ad") == 1 {
        system = system.with_adaptive(AdaptiveConfig::Model {
            margin: 0.1,
            window: 64,
        });
    }
    let kill = number("kill");
    for knob in fields {
        assert!(apply_knob(&mut system, knob), "{key}: no knob {knob:?}");
    }
    if workload == Some("tpcc") {
        // TPC-C has real distributed deadlocks (§5.6); resolve them promptly.
        system.lock_timeout = Nanos::from_millis(1);
    }
    let mut cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(100));
    if kill > 0 {
        cfg = cfg.with_failure(FailurePlan {
            partition: PartitionId(1),
            at: FailAt::Commits(kill),
            rejoin_delay: Nanos::ZERO,
        });
    }
    match workload {
        Some("micro") => {
            let micro = MicroConfig {
                partitions,
                clients,
                mp_fraction,
                abort_prob: 0.05,
                conflict_prob: 0.2,
                seed,
                ..Default::default()
            };
            let builder = MicroWorkload::new(micro);
            let r = run(cfg.clone(), MicroWorkload::new(micro), move |q| {
                builder.build_engine(q)
            });
            row(key, &cfg, &r, |e| e.fingerprint())
        }
        Some("scan") => {
            let scan = YcsbEConfig {
                partitions,
                clients,
                keys_per_partition: 256,
                theta: 0.8,
                scan_fraction: 0.6,
                insert_fraction: 0.25,
                delete_fraction: 0.1,
                scan_len: 24,
                mp_fraction,
                seed,
            };
            let builder = YcsbEWorkload::new(scan);
            let r = run(cfg.clone(), YcsbEWorkload::new(scan), move |q| {
                builder.build_engine(q)
            });
            row(key, &cfg, &r, |e| e.fingerprint())
        }
        Some("tpcc") => {
            let mut tpcc = TpccConfig::new(4, partitions);
            tpcc.scale = TpccScale::tiny();
            tpcc.seed = seed;
            let builder = TpccWorkload::new(tpcc);
            let r = run(cfg.clone(), TpccWorkload::new(tpcc), move |q| {
                builder.build_engine(q)
            });
            row(key, &cfg, &r, |e| e.store.fingerprint())
        }
        _ => panic!("{key}: no such workload"),
    }
}

/// A report as a row: outcomes, virtual latency, every `count` and `max`
/// field of the scheduler, replication, durability, sequencer and adaptive
/// blocks (each block's `visit`, so an `ns` field that times the host is
/// left out), and every primary's and live backup's store fingerprint.
/// Every row has the same columns.
/// Panics, naming the key, unless the run passes the table's checks
/// (module docs).
fn row<E: ExecutionEngine>(
    key: &str,
    cfg: &RuntimeConfig,
    r: &RuntimeReport<E>,
    fp: impl Fn(&E) -> u64,
) -> Row {
    let hex = |engines: &[E]| -> Vec<String> {
        engines.iter().map(|e| format!("{:#018x}", fp(e))).collect()
    };
    let (primaries, backups) = (hex(&r.engines), hex(&r.backups));
    let per_group = backups.len() / primaries.len();
    assert!(per_group > 0, "{key}: no backup");
    for (g, group) in backups.chunks(per_group).enumerate() {
        assert!(
            group.iter().all(|b| *b == primaries[g]),
            "{key}: P{g} diverged"
        );
    }
    assert_eq!(r.replication.replay_failures, 0, "{key}: replay failed");
    if cfg.failure.is_none() {
        assert_eq!(r.sched.stray_decisions, 0, "{key}: stray decision");
    }
    let system = &cfg.system;
    if system.sequencing_active() {
        assert_eq!(r.sequencer.cross_coord_aborts, 0, "{key}: expiry");
    }
    if system.scheme == Scheme::Blocking && !system.adaptive.is_on() {
        assert_eq!(r.sched.speculative_executions, 0, "{key}: speculated");
    }

    let (lat, events) = (r.latency(), r.virtual_time.expect("a sim run").events);
    let hold = r.sequencer.seq_hold.summary();
    let mut row: Row = vec![("key".into(), key.to_string())];
    let mut put = |prefix: &str, name: &str, value: u64| {
        row.push((format!("{prefix}{name}"), value.to_string()))
    };
    put("", "committed", r.committed);
    put("", "committed_mp", r.committed_mp);
    put("", "user_aborts", r.user_aborts);
    put("", "retries", r.retries);
    put("", "backoff_retries", r.clients.backoff_retries);
    put("", "retry_exhausted", r.clients.retry_exhausted);
    put("", "p50_ns", lat.p50.0);
    put("", "p99_ns", lat.p99.0);
    put("", "p999_ns", lat.p999.0);
    put("", "events", events);
    r.sched.visit(|name, v| put("sched.", name, v));
    r.replication.visit(|name, v| put("repl.", name, v));
    r.durability.visit(|name, v| put("dur.", name, v));
    r.sequencer.visit(|name, v| put("seq.", name, v));
    put("seq.", "hold_p50_ns", hold.p50.0);
    put("seq.", "hold_p99_ns", hold.p99.0);
    r.adaptive.visit(|name, v| put("adaptive.", name, v));
    row.push(("primaries".into(), primaries.join(",")));
    row.push(("backups".into(), backups.join(",")));
    row
}

const POISONED: &str = "no golden run panics holding a lock";

/// Every point, run on `available_parallelism()` threads, as the table's
/// text: a header line, then one line per point in [`POINTS`] order.
pub fn table() -> String {
    table_of(&POINTS)
}

/// The points `keys` names, run on `available_parallelism()` threads, as
/// table text: a header line, then one line per key in `keys` order.
pub fn table_of(keys: &[&str]) -> String {
    let work = Mutex::new(keys.iter().enumerate());
    let rows = Mutex::new(vec![None; keys.len()]);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(keys.len()) {
            scope.spawn(|| loop {
                let Some((i, key)) = work.lock().expect(POISONED).next() else {
                    return;
                };
                let row = run_point(key);
                rows.lock().expect(POISONED)[i] = Some(row);
            });
        }
    });
    let rows = rows.into_inner().expect(POISONED);
    let rows: Vec<Row> = rows.into_iter().flatten().collect();
    let line = |cells: Vec<&str>| cells.join("\t") + "\n";
    let mut text = line(rows[0].iter().map(|(c, _)| c.as_str()).collect());
    for row in &rows {
        text += &line(row.iter().map(|(_, v)| v.as_str()).collect());
    }
    text
}

/// A table's rows by key, each as (column, value) pairs in header order.
fn rows(table: &str) -> BTreeMap<&str, Vec<(&str, &str)>> {
    let mut lines = table.lines().map(|l| l.split('\t'));
    let header: Vec<&str> = lines.next().map(Iterator::collect).unwrap_or_default();
    lines
        .map(|cells| {
            let row: Vec<(&str, &str)> = header.iter().copied().zip(cells).collect();
            (row[0].1, row)
        })
        .collect()
}

/// Run the points `keys` names again and check them against their lines
/// of the committed table (the header, then `keys`' rows in `keys`
/// order). Panics unless every run passes the table's checks and
/// reproduces its line, naming each moved value by key and column
/// (old → new).
pub fn assert_reproduced(keys: &[&str]) {
    let file = std::fs::read_to_string(PATH).expect("the golden table");
    let committed = rows(&file);
    let mut lines = file.lines();
    let mut was = lines.next().unwrap_or_default().to_string() + "\n";
    for key in keys {
        if let Some(line) = lines.clone().find(|l| l.split('\t').next() == Some(key)) {
            was += line;
            was += "\n";
        }
    }
    let now = table_of(keys);
    if now == was {
        return;
    }
    let mut moved = Vec::new();
    for (key, row) in &rows(&now) {
        let Some(old) = committed.get(key) else {
            moved.push(format!("{key}: new row"));
            continue;
        };
        let old_value = |col| old.iter().find(|(c, _)| *c == col).map(|(_, v)| *v);
        for (col, value) in row {
            let old = old_value(*col).unwrap_or("(no column)");
            if old != *value {
                moved.push(format!("{key}: {col} {old} → {value}"));
            }
        }
    }
    if moved.is_empty() {
        moved.push("no value moved, but the header or the layout did".into());
    }
    panic!(
        "the golden table moved:\n{}\nIf the change means to move it, run \
         `cargo run --release -p hcc-bench --bin golden_capture` and commit the diff \
         with its cause.",
        moved.join("\n")
    );
}
