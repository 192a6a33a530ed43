//! Main-memory storage engines for `hcc`.
//!
//! Two engines, matching the paper's evaluation (§5):
//!
//! * [`kv`] — "a simple key/value store, where keys and values are arbitrary
//!   byte strings" used by the microbenchmarks. One transaction type is
//!   supported: read a set of values, then update them. A store is a
//!   hash table, or a B-tree when it serves range scans (YCSB-E).
//! * [`tpcc`] — "a custom written execution engine that executes
//!   transactions directly on data in memory. Each table is represented as
//!   either a B-Tree \[or\] hash table, as appropriate." Here every table
//!   is an array: TPC-C's ids are dense, so a row's index is arithmetic on
//!   its key (ORDER / NEW-ORDER / ORDER-LINE per district, by order id).
//!   Includes the paper's TPC-C partitioning: by warehouse, with the
//!   read-only ITEM table replicated and the STOCK table vertically
//!   partitioned (read-only columns replicated to every partition); the
//!   replicated tables are one `Arc`'d copy per process.
//!
//! Both engines support **undo buffers**: per-transaction logs of pre-images
//! that can roll a transaction's effects back, required for speculative
//! execution, multi-partition transactions, and deadlock aborts. In the
//! non-speculative fast path the schedulers skip undo recording entirely,
//! which is where the paper's low overhead comes from.

#![forbid(unsafe_code)]

pub mod durable;
pub mod kv;
pub mod ordered;
pub mod table;
pub mod tpcc;

pub use durable::{decode_frames, DurableLog, FaultMode, FileLog, LogError, MemLog};
pub use kv::{KvStore, KvUndo};
pub use ordered::OrderedIndex;
pub use table::Table;
