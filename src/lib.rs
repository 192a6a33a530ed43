//! # hcc — low-overhead concurrency control for partitioned main-memory databases
//!
//! A from-scratch Rust reproduction of Jones, Abadi and Madden, *Low
//! Overhead Concurrency Control for Partitioned Main Memory Databases*
//! (SIGMOD 2010): the H-Store-style execution substrate (single-threaded
//! partitions, central coordinator, two-phase commit, primary/backup
//! replication) and the paper's three concurrency control schemes —
//! **blocking**, **speculative execution**, and **lightweight locking** —
//! plus the OCC variant sketched in its §5.7.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | ids, virtual time, protocol messages, cost model, stats |
//! | [`storage`] | byte-string KV store and TPC-C tables, both with undo |
//! | [`locking`] | single-threaded lock manager + deadlock detection |
//! | [`core`] | the schedulers, coordinator, client-side 2PC |
//! | [`workloads`] | the paper's microbenchmark and modified TPC-C |
//! | [`runtime`] | the actors and their three drivers (thread-per-actor, multiplexed, simulator): one config, one report |
//! | [`sim`] | the runtime's virtual-time driver, calibrated to Table 2 (`hcc_runtime::sim`) |
//! | [`model`] | the §6 analytical throughput model |
//!
//! ## Quickstart
//!
//! ```
//! use hcc::prelude::*;
//! use hcc::workloads::micro::{MicroConfig, MicroWorkload};
//!
//! // Two partitions, 10 closed-loop clients, 20% multi-partition
//! // transactions, speculative concurrency control.
//! let micro = MicroConfig { mp_fraction: 0.2, clients: 10, ..Default::default() };
//! let system = SystemConfig::new(Scheme::Speculative)
//!     .with_partitions(2)
//!     .with_clients(10);
//! // The simulator; `BackendChoice::Multiplexed { workers: 2 }` runs the
//! // same config on real threads.
//! let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
//!     .with_window(Nanos::from_millis(10), Nanos::from_millis(50));
//! let builder = MicroWorkload::new(micro);
//! let report = run(cfg, MicroWorkload::new(micro), move |p| builder.build_engine(p));
//! assert!(report.committed > 0);
//! println!("{}", report.summary());
//! ```
//!
//! See `examples/` for the live runtime, TPC-C, and scheme-selection
//! walkthroughs, and `crates/bench` for the harness that regenerates every
//! figure and table of the paper.

#![forbid(unsafe_code)]

pub use hcc_common as common;
pub use hcc_core as core;
pub use hcc_locking as locking;
pub use hcc_model as model;
pub use hcc_runtime as runtime;
pub use hcc_runtime::sim;
pub use hcc_storage as storage;
pub use hcc_workloads as workloads;

/// The types most programs need.
pub mod prelude {
    pub use hcc_common::{
        AbortReason, AdaptiveConfig, AdaptiveStats, ClientId, CommitRecord, CoordinatorRef,
        CostModel, Decision, DurabilityConfig, FailAt, FailurePlan, FragmentResponse, FragmentTask,
        LockKey, LogEncode, Nanos, PartitionId, RetryConfig, Scheme, SystemConfig, TxnId,
        TxnResult,
    };
    pub use hcc_core::{
        make_scheduler, ExecOutcome, ExecutionEngine, OneRound, Outbox, PartitionOut, Procedure,
        ReplicaCore, ReplicationSession, Request, RequestGenerator, RoundOutputs, Scheduler, Step,
    };
    pub use hcc_runtime::{run, BackendChoice, RunMode, RuntimeConfig, RuntimeReport, Simulation};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let cfg = SystemConfig::new(Scheme::Speculative);
        assert_eq!(cfg.scheme, Scheme::Speculative);
        let _ = CostModel::default();
    }
}
