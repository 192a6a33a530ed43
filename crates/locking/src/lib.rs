//! Single-threaded lock manager for *logical* concurrency (paper §4.3).
//!
//! Each partition runs one thread, so this lock manager needs no latches:
//! "Our system can simply lock a data item without having to worry about
//! another thread trying to concurrently lock the same item. The only type
//! of concurrency we are trying to enable is logical concurrency where a
//! new transaction can make progress only when the previous transaction is
//! blocked waiting for a network stall."
//!
//! Provides strict two-phase locking with shared/exclusive modes, FIFO wait
//! queues, lock upgrades, wait-for-graph cycle detection for local
//! deadlocks (preferring single-partition victims, "as that will result in
//! less wasted work"), and wait timeouts for distributed deadlocks.

#![forbid(unsafe_code)]

pub mod deadlock;
pub mod granule;
pub mod manager;

pub use manager::{AcquireOutcome, LockManager, LockMode, LockStats};
