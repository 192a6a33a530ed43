//! Deterministic discrete-event simulator for the `hcc` system.
//!
//! Reproduces the paper's testbed — single-threaded partitions, a central
//! coordinator, closed-loop clients, a switched network — as actors on a
//! virtual clock. **Only time is modeled**: every transaction really
//! executes against real storage through the real schedulers from
//! `hcc-core`, so correctness properties (serializability, 2PC atomicity,
//! TPC-C consistency) are checked on exactly the code the benchmarks
//! measure.
//!
//! Time accounting: each actor has a busy-until clock. A message delivered
//! at `t` starts processing at `max(t, busy)`; the handler's virtual CPU
//! (from the calibrated [`hcc_common::CostModel`]) advances the clock, and
//! output messages depart then, arriving `one_way` later. Per-link FIFO is
//! preserved (constant latency + monotone departure times + a global
//! tie-break sequence), which the speculation protocol relies on.
//!
//! The simulator can also maintain a **backup replica** per partition
//! through the shared `hcc_core::replica::ReplicaCore` — commit-order log
//! shipping replayed in sequence, exactly like the paper's backups ("the
//! backups execute the transactions in the sequential order received from
//! the primary") and exactly like the live runtime's. Comparing primary
//! and replica state at the end doubles as a serializability check: the
//! replica *is* the serial execution in commit order. With
//! [`SimConfig::with_failover`] the same kill → promote → §3.3-recover
//! scenario the runtime drives in real time runs here in virtual time,
//! bit-deterministically.

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

mod event;
mod report;
mod simulation;

pub use report::SimReport;
pub use simulation::{run_with, CrashHarvest, SimConfig, SimFailover, Simulation};
