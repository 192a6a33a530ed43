//! The paper's contribution: low-overhead concurrency control for
//! partitioned main-memory databases, as runtime-agnostic state machines.
//!
//! The paper's three schemes (plus the OCC extension sketched in §5.7)
//! run on two scheduler types:
//!
//! * [`speculative::SpeculativeScheduler`] — §4.2, Figure 3: execute queued
//!   transactions speculatively while a multi-partition transaction waits
//!   for two-phase commit, assuming every pair of concurrent transactions
//!   conflicts; cascade aborts. At speculation depth 0 it is blocking
//!   (§4.1, Figure 2: one transaction at a time; queue everything else),
//!   and with [`speculative::ConflictPolicy::Precise`] it is OCC.
//! * [`locking_sched::LockingScheduler`] — §4.3: strict two-phase locking
//!   with a single-threaded lock manager, a no-lock fast path when no
//!   multi-partition transaction is active, cycle detection for local
//!   deadlocks and timeouts for distributed ones.
//!
//! [`AnySched::build`] is the one place a scheme becomes a scheduler, and
//! a partition runs one [`PartitionScheduler`]: the scheme it executes
//! plus, when adaptive selection is on, the [`adaptive::Controller`] that
//! swaps that scheme live from observed statistics (§5.7).
//!
//! The [`coordinator::Coordinator`] implements the central coordinator of
//! §3.3 with the speculative-result handling of §4.2.2 — a whole shard,
//! with its epoch sequencing and stall expiry — and
//! [`txn_driver::TxnDriver`] the client-side two-phase commit used by the
//! locking scheme (§4.3 sends multi-partition transactions directly to
//! partitions).
//!
//! A multi-partition transaction reaches the coordinator as a
//! [`Procedure`]. The paper's *simple* transaction (§4.2.2: one round,
//! every fragment known up front) is one type, [`OneRound`], which every
//! workload builds as data; a hand-written `Procedure` is for a
//! transaction whose later rounds read earlier outputs.
//!
//! None of these types know about threads, channels, clocks, or sockets:
//! they consume protocol events and emit protocol messages through an
//! [`outbox::Outbox`], pricing their own work in virtual nanoseconds.
//! `hcc-runtime` wraps them in actors once; OS threads, the reactor and
//! the simulator's virtual-time heap all drive those same actors.

// Associated-type generics make some signatures long; aliases would
// obscure more than they clarify here.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod client;
pub mod coordinator;
pub mod engine;
pub mod group_commit;
pub mod locking_sched;
pub mod membership;
pub mod oracle;
pub mod outbox;
pub mod procedure;
pub mod recovery;
pub mod replica;
pub mod scheduler;
pub mod sequencer;
pub mod speculative;
pub mod testkit;
pub mod txn_driver;

pub use engine::{ExecOutcome, ExecutionEngine};
pub use group_commit::{FlushDecision, GroupCommit};
pub use membership::{MembershipCore, MembershipUpdate};
pub use outbox::{Outbox, PartitionOut};
pub use procedure::{OneRound, Procedure, Request, RequestGenerator, RoundOutputs, Step};
pub use recovery::{
    recover_partition, recover_partitions_parallel, PartitionLog, RecoveryError, RecoveryOutcome,
};
pub use replica::{CommitGate, ReplayError, ReplicaCore, ReplicationSession};
pub use scheduler::{make_scheduler, AnySched, PartitionScheduler, Scheduler};
pub use sequencer::{Admit, EpochLog, EpochLogDest, PartitionSequencer};
