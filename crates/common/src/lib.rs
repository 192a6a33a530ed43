//! Shared vocabulary for the `hcc` partitioned main-memory database.
//!
//! This crate defines the identifiers, virtual-time representation, wire
//! protocol messages, configuration, and statistics helpers shared by every
//! other crate in the workspace. It deliberately contains **no** concurrency
//! control logic: the state machines in `hcc-core` and the drivers in
//! `hcc-runtime` communicate exclusively through the types
//! defined here, which is what keeps the core schedulers runtime-agnostic.
//!
//! The system reproduced here is the one described in Jones, Abadi and
//! Madden, *Low Overhead Concurrency Control for Partitioned Main Memory
//! Databases* (SIGMOD 2010): single-threaded data partitions, an optional
//! central coordinator for multi-partition transactions, two-phase commit,
//! and primary/backup replication.

#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod hash;
pub mod ids;
pub mod msg;
pub mod pad;
pub mod rng;
pub mod stats;
pub mod time;

pub use codec::LogEncode;
pub use config::{
    AdaptiveConfig, CostModel, DurabilityConfig, NetworkModel, RetryConfig, Scheme, SystemConfig,
};
pub use config::{FailAt, FailurePlan};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{ClientId, CoordinatorId, CoordinatorRef, LockKey, PartitionId, TxnId};
pub use pad::CachePadded;
pub use rng::{SplitMix64, Zipfian};

pub use msg::{
    AbortReason, CommitRecord, Decision, FragmentResponse, FragmentTask, SchemeSwitch, SpecDep,
    TxnResult, Vote,
};
pub use stats::{AdaptiveStats, SwitchRecord};
pub use time::{Nanos, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
