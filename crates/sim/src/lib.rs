//! Deterministic discrete-event simulator for the `hcc` system: a
//! virtual-time driver of the production actors.
//!
//! Reproduces the paper's testbed — single-threaded partitions, a central
//! coordinator, closed-loop clients, a switched network — on a virtual
//! clock. **Only time is modeled**: the driver builds its actors with
//! [`hcc_runtime::build_actors`], the one wiring the threaded backend and
//! the reactor use, and steps the same `ClientActor` / `CoordinatorActor`
//! / `MembershipActor` / `ReplicaActor` objects they step. Every
//! transaction really executes against real storage, every `Promote`,
//! `RoutingApplied` fence, `Commit` / `CommitAck`, `DecisionAck` and
//! durability hold is the live runtime's, so correctness properties
//! (serializability, 2PC atomicity, no acked commit lost, failover
//! convergence) are checked on exactly the code the benchmarks measure.
//!
//! # Three timing rules
//!
//! Each actor has a busy-until clock, and each `step` returns the virtual
//! CPU it cost (from the calibrated [`hcc_common::CostModel`]):
//!
//! 1. a message arriving at `t` starts at `max(t, busy)`;
//! 2. the actor is busy for the virtual CPU its `step` returns;
//! 3. every message it emitted departs then and arrives `one_way` later
//!    (mail to oneself — a client's own 2PC driver reporting its result —
//!    arrives at once), ties broken by push order.
//!
//! Constant latency, monotone departures and the tie-break keep every link
//! FIFO, which the speculation protocol relies on. [`ActorId::Partition`]
//! resolves to the group's current primary on delivery, and the membership
//! actor's `Promoted` flip is mail like any other, so it lands right
//! behind the `Promote` it follows.
//!
//! # Four driver-side models
//!
//! What the actors leave to their backend, the driver models *around* the
//! production call, never instead of it:
//!
//! * **sync latency** — a logging node left with unsynced records and no
//!   sync at the device has one issued; the production `on_drained` runs
//!   `sync_latency` later and covers whatever was appended by then;
//! * **link delay** — `rejoin_delay` is extra latency on the membership
//!   actor's `Rejoin` to the failed node; a kill is `ReplicaActor::crash`
//!   called at the chosen virtual time;
//! * **dead address** — [`SimConfig::with_partition_failure`] is the
//!   network dropping mail for the partition, and the coordinator's stall
//!   expiry doing the rest;
//! * **crash counter** — [`Simulation::run_to_crash`] counts appends
//!   across the injected logs and stops the world after the step that
//!   lands the k-th.
//!
//! Ticks follow [`hcc_runtime::TickPlan`]: an actor is ticked on the plan's
//! period for as long as it has work a tick could matter to (clients at
//! their exact backoff deadline), so the heap drains when the work does.
//!
//! With [`SimConfig::shadow_replica`] each partition keeps a backup that
//! costs no virtual time — a real `ReplicaActor` co-located with its
//! primary — and comparing the two at the end doubles as a serializability
//! check: the backup *is* the serial execution in commit order.
//!
//! [`ActorId::Partition`]: hcc_runtime::actors::ActorId::Partition

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

mod config;
mod driver;
mod report;

pub use config::{SimConfig, SimFailover};
pub use driver::{run_with, CrashHarvest, Simulation};
pub use report::SimReport;
