//! The four benchmark workloads: system configuration, request generator
//! and engine loader of each, all built from the seed alone.
//!
//! Every workload runs 2 partitions on `multiplexed:2` (two reactor
//! workers, the driver thread asleep — never more busy threads than the
//! 2 vCPUs the benchmark was sized on). `BENCHMARK.json` and the README
//! record why each was chosen.

use hcc_common::{DurabilityConfig, PartitionId, Scheme, SystemConfig};
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::tpcc::consistency;
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccEngine, TpccWorkload};
use hcc_workloads::ycsb::{YcsbEConfig, YcsbEWorkload};

pub const PARTITIONS: u32 = 2;
/// Reactor workers of every measured run.
pub const WORKERS: usize = 2;

pub const NAMES: [&str; 4] = ["micro_sp", "micro_mp", "ycsbe_lock", "tpcc_durable"];

/// What the correctness checks read off a finished engine. The engine
/// trait has none of these; both concrete engines offer them as inherent
/// methods under different spellings.
pub trait Inspect {
    fn fingerprint(&self) -> u64;
    fn live_undo_buffers(&self) -> usize;
    /// Store-level invariants (TPC-C consistency conditions; ordered-index
    /// agreement for scan-mode KV stores).
    fn check_consistency(&self) -> Result<(), String>;
    /// Whether the store keeps an `OrderedIndex` for range scans.
    fn keeps_ordered_index(&self) -> bool;
}

impl Inspect for MicroEngine {
    fn fingerprint(&self) -> u64 {
        MicroEngine::fingerprint(self)
    }

    fn live_undo_buffers(&self) -> usize {
        MicroEngine::live_undo_buffers(self)
    }

    fn check_consistency(&self) -> Result<(), String> {
        if self.scans_enabled() {
            self.check_ordered_invariants()
        } else {
            Ok(())
        }
    }

    fn keeps_ordered_index(&self) -> bool {
        self.scans_enabled()
    }
}

impl Inspect for TpccEngine {
    fn fingerprint(&self) -> u64 {
        self.store.fingerprint()
    }

    fn live_undo_buffers(&self) -> usize {
        TpccEngine::live_undo_buffers(self)
    }

    fn check_consistency(&self) -> Result<(), String> {
        consistency::check(&self.store)
            .map_err(|v| format!("{} TPC-C violations, first: {:?}", v.len(), v[0]))
    }

    fn keeps_ordered_index(&self) -> bool {
        false
    }
}

/// One benchmark workload. `Copy` so a trial can rebuild it from scratch
/// for every window (set-up is a measured quantity).
pub trait Workload: Copy {
    type Gen: RequestGenerator<Engine = Self::Engine> + Send + 'static;
    type Engine: ExecutionEngine + Inspect + Send + 'static;
    /// Whether the committed state after a fixed amount of work is the
    /// same whatever order the transactions commit in (blind increments
    /// and per-client churn slots: yes; TPC-C order ids: no).
    const ORDER_INDEPENDENT: bool;

    fn system(&self) -> SystemConfig;
    /// The request generator; `seed` reaches nothing else.
    fn generator(&self, seed: u64) -> Self::Gen;
    /// Load one partition's engine (the generators double as loaders).
    fn build_engine(gen: &Self::Gen, p: PartitionId) -> Self::Engine;
    /// Requests each client drives in the fixed-work traced pass per
    /// second of `--seconds` (sized to ~3 s of work at 18).
    fn traced_requests_per_client_per_second(&self) -> u64;
}

/// §5.1 microbenchmark under speculation: 12 read-modify-writes per
/// transaction, 32 closed-loop clients, no replication, no log.
#[derive(Clone, Copy)]
pub struct Micro {
    pub mp_fraction: f64,
    pub abort_prob: f64,
}

pub const MICRO_SP: Micro = Micro {
    mp_fraction: 0.0,
    abort_prob: 0.0,
};

pub const MICRO_MP: Micro = Micro {
    mp_fraction: 0.3,
    abort_prob: 0.05,
};

impl Workload for Micro {
    type Gen = MicroWorkload;
    type Engine = MicroEngine;
    const ORDER_INDEPENDENT: bool = true;

    fn system(&self) -> SystemConfig {
        SystemConfig::new(Scheme::Speculative)
            .with_partitions(PARTITIONS)
            .with_clients(32)
    }

    fn generator(&self, seed: u64) -> MicroWorkload {
        MicroWorkload::new(MicroConfig {
            partitions: PARTITIONS,
            clients: 32,
            keys_per_txn: 12,
            mp_fraction: self.mp_fraction,
            abort_prob: self.abort_prob,
            seed,
            ..MicroConfig::default()
        })
    }

    fn build_engine(gen: &MicroWorkload, p: PartitionId) -> MicroEngine {
        gen.build_engine(p)
    }

    fn traced_requests_per_client_per_second(&self) -> u64 {
        if self.mp_fraction == 0.0 {
            4000
        } else {
            1500
        }
    }
}

/// YCSB-E defaults (95 % range scans of up to 16 slots, 5 % inserts,
/// θ 0.99, 8 Ki preloaded rows per partition) with a tenth of the scans
/// split across both partitions, under strict 2PL with client-driven 2PC.
#[derive(Clone, Copy)]
pub struct YcsbELock;

impl Workload for YcsbELock {
    type Gen = YcsbEWorkload;
    type Engine = MicroEngine;
    const ORDER_INDEPENDENT: bool = true;

    fn system(&self) -> SystemConfig {
        SystemConfig::new(Scheme::Locking)
            .with_partitions(PARTITIONS)
            .with_clients(32)
    }

    fn generator(&self, seed: u64) -> YcsbEWorkload {
        YcsbEWorkload::new(YcsbEConfig {
            partitions: PARTITIONS,
            clients: 32,
            mp_fraction: 0.1,
            seed,
            ..YcsbEConfig::default()
        })
    }

    fn build_engine(gen: &YcsbEWorkload, p: PartitionId) -> MicroEngine {
        gen.build_engine(p)
    }

    fn traced_requests_per_client_per_second(&self) -> u64 {
        2000
    }
}

/// TPC-C (4 warehouses over 2 partitions, ÷10 scale, standard five-
/// transaction mix) under speculation with everything a deployed node
/// pays: one backup per partition and a group-committed command log
/// (500 µs interval, 64-record batches, in-memory `MemLog`). 64 clients:
/// at 32 the run is latency-bound by the group-commit hold and CPU
/// changes would not show.
#[derive(Clone, Copy)]
pub struct TpccDurable;

impl Workload for TpccDurable {
    type Gen = TpccWorkload;
    type Engine = TpccEngine;
    const ORDER_INDEPENDENT: bool = false;

    fn system(&self) -> SystemConfig {
        SystemConfig::new(Scheme::Speculative)
            .with_partitions(PARTITIONS)
            .with_clients(64)
            .with_replication(2)
            .with_durability(DurabilityConfig::default())
    }

    fn generator(&self, seed: u64) -> TpccWorkload {
        TpccWorkload::new(TpccConfig {
            seed,
            ..TpccConfig::new(4, PARTITIONS)
        })
    }

    fn build_engine(gen: &TpccWorkload, p: PartitionId) -> TpccEngine {
        gen.build_engine(p)
    }

    fn traced_requests_per_client_per_second(&self) -> u64 {
        200
    }
}

/// Run `$body` with `$w` bound to the workload named `$name` (each arm
/// monomorphises the body for that workload's engine and generator).
#[macro_export]
macro_rules! with_workload {
    ($name:expr, |$w:ident| $body:expr) => {
        match $name {
            "micro_sp" => {
                let $w = $crate::workloads::MICRO_SP;
                Ok($body)
            }
            "micro_mp" => {
                let $w = $crate::workloads::MICRO_MP;
                Ok($body)
            }
            "ycsbe_lock" => {
                let $w = $crate::workloads::YcsbELock;
                Ok($body)
            }
            "tpcc_durable" => {
                let $w = $crate::workloads::TpccDurable;
                Ok($body)
            }
            other => Err(format!(
                "unknown workload {other:?} (expected one of {:?})",
                $crate::workloads::NAMES
            )),
        }
    };
}
