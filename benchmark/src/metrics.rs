//! The benchmark's vocabulary: every metric's name, unit and direction,
//! and for per-layer metrics the layer they measure, where the number
//! comes from, and which end-to-end metric on which workload a change to
//! that layer should move. `BENCHMARK.json` repeats name, unit and
//! direction (a test holds the two in step); the rest lives here and in
//! the README because the contract fixes `BENCHMARK.json`'s keys.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// `compare` only: the metric must also worsen by more than this much
    /// in its own unit. The micro set-ups take ~70 µs; a quarter of that
    /// is a scheduling blip, not work moved into set-up.
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "tps",
        unit: "txn/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.05,
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// The traced fixed-work pass on the live runtime.
    InSitu,
    /// A single-threaded drive of the layer's public functions.
    Drive,
    /// The harness itself.
    Harness,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub source: Source,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

use Source::{Drive, Harness, InSitu};

const RUNTIME_MOVES: &str = "tps, p50_us on micro_sp most, micro_mp next; little on tpcc_durable";
const STORAGE_MOVES: &str = "tps on tpcc_durable (largest share) and ycsbe_lock";
const UNDO_MOVES: &str = "tps on micro_mp only (undo and rollback are idle elsewhere)";
const SCHED_MOVES: &str = "tps, p50_us on micro_mp; flat on micro_sp";
const COORD_MOVES: &str = "tps on micro_mp (the central coordinator is the §5 bottleneck)";
const LOCK_MOVES: &str = "tps on ycsbe_lock only";
const CODEC_MOVES: &str = "tps on tpcc_durable only";
const LOG_MOVES: &str = "p50_us then tps on tpcc_durable only";
const REPLICA_MOVES: &str = "tps on tpcc_durable (backups share the two workers)";
const RECOVERY_MOVES: &str = "none of the four today; the handle for checkpoint/truncation work";
const CLIENT_MOVES: &str = "diagnostic for p50_us and failed/attempted";

// One row per metric; rustfmt would spread each over eight lines.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 56] = [
    m("workloads.gen_ns_per_txn",             "ns/txn",    "lower",  "workloads",        InSitu,  "tps on micro_sp; flat on tpcc_durable"),
    m("runtime.busy_ns_per_txn",              "ns/txn",    "lower",  "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.steps_per_txn",                "steps/txn", "lower",  "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.residual_ns_per_step",         "ns/step",   "lower",  "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.busy_share",                   "ratio",     "higher", "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.steals_per_ktxn",              "1/ktxn",    "lower",  "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.parks_per_s",                  "1/s",       "lower",  "runtime",          InSitu,  RUNTIME_MOVES),
    m("runtime.pinned_step_share",            "ratio",     "higher", "runtime",          InSitu,  RUNTIME_MOVES),
    m("storage.engine_ns_per_txn",            "ns/txn",    "lower",  "storage",          InSitu,  STORAGE_MOVES),
    m("storage.exec_ns_per_call",             "ns",        "lower",  "storage",          InSitu,  STORAGE_MOVES),
    m("storage.exec_calls_per_txn",           "1/txn",     "lower",  "storage",          InSitu,  STORAGE_MOVES),
    m("storage.undo_call_share",              "ratio",     "lower",  "storage",          InSitu,  UNDO_MOVES),
    m("storage.rollback_ns_per_txn",          "ns/txn",    "lower",  "storage",          InSitu,  UNDO_MOVES),
    m("storage.rollbacks_per_ktxn",           "1/ktxn",    "lower",  "storage",          InSitu,  UNDO_MOVES),
    m("storage.forget_ns_per_txn",            "ns/txn",    "lower",  "storage",          InSitu,  STORAGE_MOVES),
    m("storage.lockset_ns_per_txn",           "ns/txn",    "lower",  "storage",          InSitu,  LOCK_MOVES),
    m("storage.ordered.scan_ns_per_row",      "ns/row",    "lower",  "storage.ordered",  Drive,   LOCK_MOVES),
    m("storage.ordered.insert_ns",            "ns",        "lower",  "storage.ordered",  Drive,   LOCK_MOVES),
    m("core.sched.self_ns_per_frag",          "ns",        "lower",  "core.sched",       Drive,   SCHED_MOVES),
    m("core.sched.sp_self_ns",                "ns",        "lower",  "core.sched",       Drive,   SCHED_MOVES),
    m("core.sched.mp_self_ns",                "ns",        "lower",  "core.sched",       Drive,   SCHED_MOVES),
    m("core.sched.fast_path_share",           "ratio",     "higher", "core.sched",       InSitu,  "must stay 1.0 on micro_sp"),
    m("core.sched.spec_exec_share",           "ratio",     "higher", "core.sched",       InSitu,  SCHED_MOVES),
    m("core.sched.squash_share",              "ratio",     "lower",  "core.sched",       InSitu,  SCHED_MOVES),
    m("core.sched.lock_wait_share",           "ratio",     "lower",  "core.sched",       InSitu,  LOCK_MOVES),
    m("core.sched.deadlocks_per_ktxn",        "1/ktxn",    "lower",  "core.sched",       InSitu,  LOCK_MOVES),
    m("core.sched.lock_timeouts_per_ktxn",    "1/ktxn",    "lower",  "core.sched",       InSitu,  LOCK_MOVES),
    m("core.sched.aborted_share",             "ratio",     "lower",  "core.sched",       InSitu,  SCHED_MOVES),
    m("core.coordinator.ns_per_mp_txn",       "ns",        "lower",  "core.coordinator", Drive,   COORD_MOVES),
    m("core.coordinator.msgs_per_mp_txn",     "count",     "lower",  "core.coordinator", Drive,   COORD_MOVES),
    m("locking.acquire_ns_per_lock",          "ns",        "lower",  "locking",          Drive,   LOCK_MOVES),
    m("locking.release_ns_per_txn",           "ns",        "lower",  "locking",          Drive,   LOCK_MOVES),
    m("locking.locks_per_txn",                "count",     "lower",  "locking",          Drive,   LOCK_MOVES),
    m("common.codec.encode_ns_per_record",    "ns",        "lower",  "common.codec",     Drive,   CODEC_MOVES),
    m("common.codec.decode_ns_per_record",    "ns",        "lower",  "common.codec",     Drive,   CODEC_MOVES),
    m("common.codec.bytes_per_record",        "B",         "lower",  "common.codec",     Drive,   CODEC_MOVES),
    m("storage.durable.append_ns_per_record", "ns",        "lower",  "storage.durable",  Drive,   LOG_MOVES),
    m("storage.durable.sync_ns_per_batch",    "ns",        "lower",  "storage.durable",  Drive,   LOG_MOVES),
    m("storage.durable.records_per_sync",     "count",     "higher", "storage.durable",  InSitu,  LOG_MOVES),
    m("storage.durable.log_bytes_per_txn",    "B/txn",     "lower",  "storage.durable",  InSitu,  LOG_MOVES),
    m("core.group_commit.held_share",         "ratio",     "lower",  "core.group_commit", InSitu,  LOG_MOVES),
    m("core.group_commit.stalled_aborts",     "count",     "lower",  "core.group_commit", InSitu,  LOG_MOVES),
    m("core.replica.apply_ns_per_record",     "ns",        "lower",  "core.replica",     Drive,   REPLICA_MOVES),
    m("core.replica.self_ns_per_record",      "ns",        "lower",  "core.replica",     Drive,   REPLICA_MOVES),
    m("core.replica.shipped_per_txn",         "1/txn",     "lower",  "core.replica",     InSitu,  REPLICA_MOVES),
    m("core.replica.replay_failures",         "count",     "lower",  "core.replica",     InSitu,  "must be 0"),
    m("core.recovery.records_per_s",          "1/s",       "higher", "core.recovery",    Drive,   RECOVERY_MOVES),
    m("core.recovery.recover_ms",             "ms",        "lower",  "core.recovery",    Drive,   RECOVERY_MOVES),
    m("core.client.retry_share",              "ratio",     "lower",  "core.client",      InSitu,  CLIENT_MOVES),
    m("core.client.user_abort_share",         "ratio",     "lower",  "core.client",      InSitu,  CLIENT_MOVES),
    m("core.client.failed_share",             "ratio",     "lower",  "core.client",      InSitu,  CLIENT_MOVES),
    m("core.client.p99_us",                   "us",        "lower",  "core.client",      InSitu,  CLIENT_MOVES),
    m("core.client.p999_us",                  "us",        "lower",  "core.client",      InSitu,  CLIENT_MOVES),
    m("core.client.latency_samples",          "count",     "higher", "core.client",      InSitu,  CLIENT_MOVES),
    m("trace.overhead_share",                 "ratio",     "lower",  "harness",          Harness, "-"),
    m("mem.peak_rss_mb",                      "MiB",       "lower",  "harness",          Harness, "-"),
];

/// A set of named metric values in emission order.
#[derive(Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// `num / den`, or 0 when the layer never ran (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        // The contract's rule: starts with a letter or digit, then at most
        // 64 of letters, digits, `_`, `.`, `-`.
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.better))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit, p.better)));
        for (name, unit, better) in all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(matches!(better, "higher" | "lower"), "{name}: {better}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in crate::workloads::NAMES {
            assert!(valid_name(w), "bad workload name {w:?}");
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_unit("txn per second and more") && !valid_unit("µs"));
    }

    #[test]
    fn bounds_respect_the_contract() {
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }

    /// `BENCHMARK.json` and the binary speak the same vocabulary: same
    /// names, units, directions and bounds, nothing extra on either side.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        use crate::json::{as_array, as_f64, as_str, get, parse};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let field =
            |v: &crate::json::Value, k: &str| as_str(get(v, k).unwrap()).unwrap().to_string();

        let listed: Vec<_> = as_array(get(&doc, "end_to_end").unwrap())
            .unwrap()
            .iter()
            .map(|v| {
                let bound = as_f64(get(v, "bound").unwrap()).unwrap();
                (
                    field(v, "name"),
                    field(v, "unit"),
                    field(v, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    e.better.to_string(),
                    e.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = as_array(get(&doc, "per_layer").unwrap())
            .unwrap()
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|p| (p.name.to_string(), p.unit.to_string(), p.better.to_string()))
            .collect();
        assert_eq!(listed, ours);

        assert_eq!(
            as_f64(get(&doc, "run_seconds").unwrap()),
            Some(crate::suite::SECONDS)
        );

        let listed: Vec<_> = as_array(get(&doc, "workloads").unwrap())
            .unwrap()
            .iter()
            .map(|v| field(v, "name"))
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
    }
}
